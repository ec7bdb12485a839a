"""Netlist execution: the IC/OP/HALT machine with a fixed-step engine.

A MachineInstance checks its netlist once, through
``machine.evaluation_order``, which orders the elements it generates
code for: a netlist that fails validation or holds an algebraic loop
raises ``ConstructionError`` there and never reaches the run loop.
A MachineInstance owns integrator states and advances them with the
classical 4th-order fixed-step scheme, re-evaluating the part of the
algebraic element graph that the integrators read at every internal
stage. A run's steps come from ``step_grid`` alone, and its last step
ends on its horizon. After each completed step every net value is
quantized to the configured resolution grid and clamped to [-1, 1];
clamps are logged as overload events (or abort the run in strict mode).
An integrator's state accumulates at full precision and only its output
is quantized, so increments below the grid are not lost; a state that
reaches a rail is clamped there and logged.
Digital-potentiometer updates and ADC readout model the hybrid-computer
attachment points.

The whole OP loop is compiled once per instance into one straight-line
Python function, ``_run``: the four RK4 stages, the state update, the
value model inlined as one range comparison per state and checked net
(quantizing first when the resolution is set), and decimated sampling in
blocks of ``sample_every`` steps with no per-step branch. The overload
log, the strict abort, the clamp and the non-finite check sit out of
line in ``MachineInstance._overload``, reached only by a value outside
[-1, 1]. Pot values are read once per run. The raw nets after a step
are the next step's first stage, where every net is evaluated; the
three inner stages evaluate only what an integrator input reaches, with
nets read once inlined. Three further savings keep every result the
same:

- *Sign folding.* A net or derivative whose value is -(X) is stored as
  X with its sign kept apart, and each reader folds the sign exactly:
  a sum subtracts it (IEEE 754 defines x - y as x + (-y)), a stage value
  steps by ``- h * X`` (h * (-X) is -(h * X) under round-to-nearest),
  and a product negates. A derivative or net that is another local or
  its negation (an inverter) gets no line at all. A negation is never
  pushed through a sum, as -(a + b) and -(a) - b differ in the sign of a
  zero, and terms are never reordered.
- *Range-proven observation.* ``machine.net_bounds`` bounds each net's
  magnitude while the states are finite, in one pass of the kinds'
  bounds with each integrator at 1. A net whose bound, quantized as the
  loop quantizes (``resolution * round(b / resolution)``, b itself at
  resolution 0), is at most 1 can never log an overload, so it is not
  checked, at step 0 as at every step: its observed value is computed
  only at each sample and at the return. A grid on which some b /
  resolution overflows cannot quantize that net: ``ConstructionError``.
- *Inline tables.* A function generator's end-clamped lookup is
  generated code (``machine.lookup_code``): the argument bound once, the
  two end clamps, then a balanced comparison chain that picks the
  segment ``bisect_right`` would, with the segment's slope terms folded
  at generation. ``machine.element_output`` evaluates the same
  expression.

The generated code performs the same floating-point operations on the
same operands as one evaluation of every element per stage, up to these
exact folds, so results are bit for bit those of
``machine.element_output`` folded over the graph. ``run``, ``step`` and
loading the initial conditions all go through ``_run``, which keeps long
runs (millions of element evaluations) fast while staying
bit-deterministic.

``descale_trace`` maps a trace back to problem units and problem time
through the compiler's sidecar mapping.

Instances are single-threaded. A parameter sweep builds one instance
and cycles it IC -> OP -> HALT once per value; with several usable CPUs
each forked sweep lane cycles its own copy and writes its rows' traces,
so ``_run`` is generated once per sweep and neither it nor a trace
crosses a process boundary. Traces are written a line at a time through
the file's buffer, so that no file's whole text is held at once, quoted
as ``csv.writer`` quotes, without loading ``csv``.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from enum import Enum
from itertools import product

from .machine import (
    KINDS,
    ConstructionError,
    Kind,
    Mapping,
    Netlist,
    ScalingError,
    StructuralError,
    evaluation_order,
    net_bounds,
    parameter,
)
from .record import Frozen, Record


class ModeError(ValueError):
    """An illegal operating-mode transition was requested."""


class OverloadError(RuntimeError):
    """Strict-overload run aborted; carries the offending element id."""

    def __init__(self, element: str, time: float, magnitude: float):
        self.element = element
        self.time = time
        self.magnitude = magnitude
        super().__init__(f"overload at tau={time}: element {element!r} reached {magnitude}")


class SimulationWarning(UserWarning):
    pass


class Mode(str, Enum):
    IC = "IC"
    OP = "OP"
    HALT = "HALT"


#: Legal mode transitions: every pair but OP->IC and IC->HALT. A run must
#: pass through HALT before its states may be thrown away.
LEGAL_TRANSITIONS = frozenset(product(Mode, Mode)) - {(Mode.OP, Mode.IC), (Mode.IC, Mode.HALT)}


class SimConfig(Frozen):
    """Fixed-step simulation parameters.

    ``resolution`` is the machine's value grid in machine units; 0 means
    ideal (quantization off). ``sample_every`` decimates the trace.
    """

    __slots__ = ("dt", "resolution", "adc_bits", "strict_overload", "sample_every")

    def __init__(self, dt: float = 1e-4, resolution: float = 0.0, adc_bits: int = 12,
                 strict_overload: bool = False, sample_every: int = 1):
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not (0.0 <= resolution < 1.0):
            raise ValueError("resolution must lie in [0, 1)")
        if not (1 <= adc_bits <= 32):
            raise ValueError("adc_bits must lie in 1..32")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        super().__init__(dt, resolution, adc_bits, strict_overload, sample_every)


class OverloadEvent(Frozen):
    __slots__ = ("time", "element", "magnitude")


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as ``csv.writer`` quotes it with
    ``lineterminator="\\n"``: only a field holding ``,``, ``"`` or ``\\n``,
    with each ``"`` doubled. A field holding ``\\r`` is quoted too, which
    ``csv.writer`` omits although ``csv.reader`` rejects it bare."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_row(fields) -> str:
    """One CSV line of the text ``fields``, each quoted by ``csv_field``."""
    return ",".join(map(csv_field, fields)) + "\n"


class Trace(Record):
    """Sampled machine-unit values of the named nets plus the overload log."""

    __slots__ = ("tau", "series", "overloads", "time_label")
    _defaults = {"time_label": "tau"}

    def final(self) -> dict:
        return {name: values[-1] for name, values in self.series.items()}

    def write_csv(self, fh) -> None:
        names = list(self.series)
        row = ",".join(["%r"] * (len(names) + 1)) + "\n"
        fh.write(csv_row([self.time_label, *names]))
        fh.writelines(row % values for values in zip(self.tau, *self.series.values()))

    def write_overloads_csv(self, fh) -> None:
        quoted = {name: csv_field(name) for name in {ev.element for ev in self.overloads}}
        fh.write(csv_row(["time", "element", "magnitude"]))
        fh.writelines(f"{ev.time!r},{quoted[ev.element]},{ev.magnitude!r}\n"
                      for ev in self.overloads)

    def save(self, path, overload_path=None) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self.write_csv(fh)
        if overload_path is not None:
            with open(overload_path, "w", encoding="utf-8", newline="") as fh:
                self.write_overloads_csv(fh)


def descale_trace(trace: Trace, mapping: Mapping) -> Trace:
    """Map a machine-unit trace back to problem units and problem time."""
    series = {}
    for name, values in trace.series.items():
        if name not in mapping.signals:
            raise ScalingError(f"signal {name!r} is not in the mapping")
        b = mapping.signals[name]
        factor = b.parity * b.scale
        series[name] = [factor * v for v in values]
    t = [mapping.lam * tau for tau in trace.tau]
    overloads = [OverloadEvent(mapping.lam * ev.time, ev.element, ev.magnitude)
                 for ev in trace.overloads]
    return Trace(t, series, overloads, time_label="t")


# --- code generation -------------------------------------------------------

def _indent(lines: list[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


#: A single-reader net is inlined only while its expression is shorter than
#: this, so no generated line nests near the parser's 200 parentheses.
_INLINE_CHARS = 200


#: Generated code for one value: (text, neg, summed). The value is
#: ``-(text)`` if neg, else ``text``; ``text`` is a bare sum such as
#: ``a + b`` or ``a - b`` only if summed. The sign is kept apart so that
#: readers fold it without reading the text again.
_Expr = tuple[str, bool, bool]


def _name(text: str) -> _Expr:
    return text, False, False


def _code(x: _Expr) -> str:
    """The value as a right-hand side or a parenthesized operand."""
    return f"-({x[0]})" if x[1] else x[0]


def _operand(x: _Expr) -> str:
    """The unsigned value as an operand of ``+`` or ``-``."""
    return f"({x[0]})" if x[2] else x[0]


def _neg(x: _Expr) -> _Expr:
    """The negated value; -(-(X)) is X."""
    return x[0], not x[1], x[2]


def _sum(terms: list[_Expr]) -> _Expr:
    """The terms added in order, each negated one after the first
    subtracted: x + (-(y)) is x - y exactly. The first keeps its -(X), as
    -(a + b) and -(a) - b differ in the sign of a zero."""
    if len(terms) == 1:
        return terms[0]
    first = _code(terms[0]) if terms[0][1] else _operand(terms[0])
    rest = "".join(f" {'-' if t[1] else '+'} {_operand(t)}" for t in terms[1:])
    return first + rest, False, True


def _scaled(m: float, x: _Expr) -> _Expr:
    """``m * (x)`` with the exact sign folds: -m * (-(X)) is m * (X), and
    1.0 * (X) and -1.0 * (X) are X and -(X). Negation and scaling by ±m
    round alike in IEEE round-to-nearest, and ×(-1) keeps signed zeros."""
    if x[1]:
        m, x = -m, _neg(x)
    if m == 1.0:
        return x
    if m == -1.0:
        return _neg(x)
    return _name(f"{m!r} * ({_code(x)})")


def _generate(netlist: Netlist, resolution: float):
    """Compile the netlist into ``_run``, the whole OP loop as straight-line code.

    ``_run(s, c, nets, t0, dt, n, every, clamp)`` starts at time ``t0``
    from the states ``s``, the pot values ``c`` and every net's observed
    value ``nets``, advances ``n`` classical 4th-order steps of size
    ``dt`` and returns ``(states, nets, taus, columns)``: the new states,
    every net's observed value in netlist order, and the sample times
    with one column per ``netlist.outputs`` name, sampled at ``t0``, every
    ``every``-th step and the last step. With ``nets`` None it first
    observes the nets of ``s`` as step 0.

    Step 0 is peeled off: it reads the checked nets from ``nets``, or
    checks them on ``s``. Then an outer loop runs once per sample and an
    inner ``for`` runs up to ``every`` steps with no per-step branch.
    A step evaluates the RK4 stages a, b, d and e. Stage a evaluates every
    net, and the raw nets after a step are the next step's stage a.
    Stages b, d and e evaluate only the nets an integrator input reaches,
    and a net read once is inlined into its reader, in the same operations
    and operand order, as is each lookup (``machine.lookup_code``). Signs
    fold as the module docstring says: a value -(X) is bound as X, and a
    sum, a stage value or a product that reads it folds the sign.

    One rule picks the nets checked, at step 0 as at every step. A net
    whose ``machine.net_bounds`` bound, quantized as the loop quantizes,
    is at most 1 is observed only where it is read, at each sample and at
    the return; rounding is monotonic, so the bound, computed with the
    generated code's own operations in its order, bounds what that code
    computes. Every other net is checked. A bound whose quotient by the
    resolution overflows is a ``ConstructionError``, so no quantization
    can raise. A state or a checked net outside [-1, 1], or not finite,
    goes through ``clamp(v, tau, element, i)``, the value model's slow
    path at step ``i``, which returns the clamped value or raises. On a
    raise the states of the last completed state update are written back
    into ``s``.
    """
    elements = netlist.elements
    integrators = [e for e in elements.values() if e.kind is Kind.INTEGRATOR]
    coefficients = [e for e in elements.values() if e.kind is Kind.COEFFICIENT]
    coef_of = {e.id: i for i, e in enumerate(coefficients)}
    order = evaluation_order(netlist)
    local_of = {eid: f"v{i}" for i, eid in enumerate(order)}
    namespace: dict = {"OverloadError": OverloadError, "StructuralError": StructuralError}
    # Locals bound once per call: a run cannot change its pots.
    prologue = ["rnd = round", "h2 = 0.5 * dt", "h6 = dt / 6.0"]
    prologue += [f"pot{i} = c[{i}]" for i in range(len(coefficients))]
    param_of = {}  # element id -> what its output expression reads as its parameter
    for eid in order:
        e = elements[eid]
        p = parameter(e.kind, e.params)
        param_of[eid] = (f"pot{coef_of[eid]}" if e.kind is Kind.COEFFICIENT
                         else repr(p) if e.kind is Kind.REFERENCE else p)

    def output(e, ins: list[_Expr]) -> _Expr:
        if e.kind is Kind.SUMMER:  # the negated sum, its sign kept apart
            return _neg(_sum(ins))
        neg = False
        if e.kind in (Kind.COEFFICIENT, Kind.MULTIPLIER):  # x * (-(y)) is -(x * y)
            neg = sum(x[1] for x in ins) % 2 == 1
            ins = [(x[0], False, x[2]) for x in ins]
        y = _name(KINDS[e.kind].output(list(map(_code, ins)), param_of[e.id]))
        return _neg(y) if neg else y

    # How many inputs read each element's net in stages b, d and e: the
    # integrators' inputs, then the inputs of every element read in turn.
    reads = Counter(n for e in integrators for n in e.inputs)
    for eid in reversed(order):
        if reads[eid]:
            reads.update(elements[eid].inputs)

    def bound(lines: list[str], name: str, x: _Expr, inline: bool = False) -> _Expr:
        """``x`` itself if it is a local or its negation, or if ``inline``;
        else ``name``, bound to x by a new line and its sign kept apart."""
        if inline or (not x[2] and x[0].isidentifier()):
            return x
        lines.append(f"{name} = {x[0]}")
        return name, x[1], False

    def emit_stage(tag: str, states: list[_Expr]):
        """Stage ``tag`` on the integrators' stage values ``states``: the
        lines binding its nets, every net's expression by element, and the
        lines binding its derivatives ``k{tag}{i}`` with their expressions."""
        lines: list[str] = []
        view: dict[str, _Expr] = {}

        def bind(eid: str, name: str, x: _Expr) -> None:
            inline = tag != "a" and reads[eid] == 1 and len(x[0]) < _INLINE_CHARS
            view[eid] = bound(lines, name, x, inline)

        for i, (e, x) in enumerate(zip(integrators, states)):
            if tag == "a":
                view[e.id] = x
            elif reads[e.id]:
                bind(e.id, f"{tag}s{i}", x)
        for eid in order:
            e = elements[eid]
            if e.kind is Kind.REFERENCE:
                view[eid] = output(e, [])  # a constant, folded into uses
            elif tag == "a" or reads[eid]:
                bind(eid, f"{tag}_{local_of[eid]}", output(e, [view[n] for n in e.inputs]))
        deriv_lines: list[str] = []
        derivs = [bound(deriv_lines, f"k{tag}{i}",
                        _scaled(-e.params["k0"], _sum([view[n] for n in e.inputs])))
                  for i, e in enumerate(integrators)]
        return lines, view, deriv_lines, derivs

    a_lines, a_view, ka_lines, a_derivs = emit_stage(
        "a", [_name(f"as{i}") for i in range(len(integrators))])
    tau = "t0 + i * dt"
    step = []
    if integrators:
        step += ka_lines
        ks = [a_derivs]
        for tag, scale in (("b", "h2"), ("d", "h2"), ("e", "dt")):
            lines, _, deriv_lines, derivs = emit_stage(
                tag, [(f"as{i} {'-' if k[1] else '+'} {scale} * {k[0]}", False, True)
                      for i, k in enumerate(ks[-1])])
            step += lines + deriv_lines
            ks.append(derivs)
        for i, e in enumerate(integrators):
            ka, kb, kd, ke = (k[i] for k in ks)
            total = _sum([ka, (f"2.0 * {kb[0]}", kb[1], False),
                          (f"2.0 * {kd[0]}", kd[1], False), ke])
            step.append(f"if not -1.0 <= (ns{i} := as{i} + h6 * ({total[0]})) <= 1.0: "
                        f"ns{i} = clamp(ns{i}, {tau}, {e.id!r}, i)")
        step += [f"as{i} = ns{i}" for i in range(len(integrators))] + a_lines

    def quantized(v: str) -> str:
        return f"{resolution!r} * rnd({v} / {resolution!r})" if resolution > 0.0 else v

    values, observe, checked = [], [], []  # values: each net's observed value at a sample
    for j, (nid, b) in enumerate(net_bounds(netlist, order).items()):
        v = quantized(_code(a_view[nid]))
        if resolution > 0.0:  # b on the loop's grid, if b / resolution is finite
            if not b / resolution < math.inf:
                raise ConstructionError(f"resolution {resolution!r} cannot quantize net {nid!r}: "
                                        f"its bound {b!r} over the resolution overflows")
            b = resolution * round(b / resolution)
        if b <= 1.0:  # never clamped: observed where it is read
            values.append(v)
        else:
            observe.append(f"if not -1.0 <= (o{j} := {v}) <= 1.0: "
                           f"o{j} = clamp(o{j}, {tau}, {nid!r}, i)")
            values.append(f"o{j}")
            checked.append(j)
    name_pos = {e.name: j for j, e in enumerate(elements.values()) if e.name is not None}
    samples = [f"ap{k}({values[name_pos[name]]})" for k, name in enumerate(netlist.outputs)]
    states = ", ".join(f"as{i}" for i in range(len(integrators)))

    head = prologue + [f"as{i} = s[{i}]" for i in range(len(integrators))] + a_lines
    head += ["taus = []", "apt = taus.append"]
    for k in range(len(samples)):
        head += [f"col{k} = []", f"ap{k} = col{k}.append"]
    # Step 0 continues from the observed nets, or checks the nets of s as
    # every step does: an unchecked net cannot clamp at step 0 either.
    head += ["i = 0", "try:"]
    if checked:
        head += _indent(["if nets is None:", *_indent(observe, 1),
                         "else:", *_indent([f"o{j} = nets[{j}]" for j in checked], 1)], 1)
    head += _indent(["apt(t0)"] + samples, 1)
    # Then one outer pass per sample, of up to ``every`` steps.
    loop = ["while i < n:", "    stop = i + every", "    if stop > n:", "        stop = n",
            "    for i in range(i + 1, stop + 1):"]
    loop += _indent(step + observe or ["pass"], 2)
    loop += _indent([f"apt({tau})"] + samples, 1)
    head += _indent(loop, 1)
    head += ["except (OverloadError, StructuralError):", f"    s[:] = [{states}]", "    raise"]
    cols = ", ".join(f"col{k}" for k in range(len(samples)))
    head.append(f"return [{states}], [{', '.join(values)}], taus, [{cols}]")
    src = ["def _run(s, c, nets, t0, dt, n, every, clamp):"] + _indent(head, 1)

    exec(compile("\n".join(src), "<netlist>", "exec"), namespace)
    return namespace["_run"], integrators, coefficients, name_pos


def step_grid(span: float, dt: float) -> tuple[int, float]:
    """``(n, h)``: the n steps of size h that end on ``span``.

    n is ceil(span/dt - 1e-9), 0 when span <= 0, and h is span/n, or dt
    when n*dt lies within 1e-9*dt of the span: whole steps run at dt
    exactly, so a run to tau and one more step of dt is a run to tau + dt
    bit for bit. ValueError for a non-finite span, a step not in (0, inf)
    and 2**53 steps or more, whose times t0 + i*h would not all differ.
    """
    if not (math.isfinite(span) and 0.0 < dt < math.inf):
        raise ValueError(f"a run needs a finite span and a finite positive step, got {span!r} and {dt!r}")
    if not span / dt < 2**53:
        raise ValueError(f"the run needs {span / dt:.3g} steps of {dt:g}, fewer than 2**53 are allowed")
    n = math.ceil(span / dt - 1e-9) if span > 0 else 0
    return (n, dt) if n == 0 or abs(n * dt - span) <= 1e-9 * dt else (n, span / n)


def _rail(v: float, tau: float, element: str, step: int) -> float:
    """A value-model slow path that clamps without logging or aborting."""
    return 1.0 if v > 0 else -1.0


class MachineInstance:
    """One analog machine loaded with a netlist, in IC mode after creation."""

    def __init__(self, netlist: Netlist, config: SimConfig | None = None):
        self.netlist = netlist
        self.config = config or SimConfig()
        self._run, self._integrators, self._coefficients, self._name_pos = _generate(
            netlist, self.config.resolution)
        self._coef_pos = {e.id: i for i, e in enumerate(self._coefficients)}
        self._c = [e.params["alpha"] for e in self._coefficients]
        self.mode = Mode.IC
        self.tau = 0.0
        self._load_ic()

    # -- mode machine ---------------------------------------------------

    def _load_ic(self):
        self._s = [e.params["ic"] for e in self._integrators]
        self.tau = 0.0
        self.overloads: list[OverloadEvent] = []
        self._observe()

    def set_mode(self, new_mode: Mode | str) -> None:
        new_mode = Mode(new_mode)
        if (self.mode, new_mode) not in LEGAL_TRANSITIONS:
            raise ModeError(f"illegal transition {self.mode.value} -> {new_mode.value}")
        if new_mode is Mode.IC:
            self._load_ic()
        self.mode = new_mode

    @property
    def states(self) -> dict:
        return {e.id: v for e, v in zip(self._integrators, self._s)}

    # -- value model ------------------------------------------------------

    def _overload(self, v: float, tau: float, element: str, step: int) -> float:
        """The value model's slow path for a value outside [-1, 1]: reject
        a non-finite value, log the overload at ``tau``, abort a strict
        run from ``step`` 1 on, else return the value clamped to the rail."""
        if not math.isfinite(v):
            self.tau = tau
            raise StructuralError(f"non-finite value at element {element!r}")
        self.overloads.append(OverloadEvent(tau, element, abs(v)))
        if step and self.config.strict_overload:
            self.tau = tau
            raise OverloadError(element, tau, abs(v))
        return 1.0 if v > 0 else -1.0

    def _observe(self, clamp=None) -> None:
        """Evaluate and observe every net at the current state and time as
        step 0, through ``clamp`` or else the value model: overloads are
        logged but never abort."""
        self._s, self._net_values, _, _ = self._run(
            self._s, self._c, None, self.tau, self.config.dt, 0, 1, clamp or self._overload)

    def _steps(self, dt: float, n: int, every: int) -> tuple[list, list]:
        """Advance ``n`` steps of size ``dt``; step ``i`` ends at ``t0 + i*dt``,
        the time its overloads carry. Returns the sample times and columns."""
        t0 = self.tau
        try:
            self._s, self._net_values, taus, cols = self._run(
                self._s, self._c, self._net_values, t0, dt, n, every, self._overload)
        except OverloadError:
            # The machine holds the states the abort left; show their nets,
            # clamped to the rails but not logged a second time.
            self._observe(_rail)
            raise
        self.tau = t0 + n * dt
        return taus, cols

    def step(self, dt: float | None = None) -> None:
        """Advance one fixed step of size ``dt`` (OP mode only)."""
        if self.mode is not Mode.OP:
            raise ModeError("step requires OP mode")
        h = self.config.dt if dt is None else dt
        if not 0.0 < h < math.inf:
            raise ValueError("dt must be positive and finite")
        self._steps(h, 1, 1)

    def run(self, tau_end: float) -> Trace:
        """Run IC/OP to ``tau_end``, sampling the named nets; end in HALT.

        From IC mode the run starts at the initial conditions; from OP it
        continues from the current time, on ``step_grid``'s steps to
        ``tau_end``. Strict overloads abort, leaving the machine in OP at
        the time of the overload.
        """
        if self.mode not in (Mode.IC, Mode.OP):
            raise ModeError("run requires IC or OP mode")
        n, h = step_grid(tau_end - self.tau, self.config.dt)
        self.set_mode(Mode.OP)
        taus, cols = self._steps(h, n, self.config.sample_every)
        self.set_mode(Mode.HALT)
        return Trace(taus, dict(zip(self.netlist.outputs, cols)), list(self.overloads))

    # -- hybrid attachment -------------------------------------------------

    def set_coefficient(self, element_id: str, alpha: float) -> None:
        """Digital-potentiometer update: 16-bit quantized, any mode; in IC the state reloads."""
        if element_id not in self._coef_pos:
            raise KeyError(f"{element_id!r} is not a coefficient element")
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha {alpha} outside [0, 1]")
        self._c[self._coef_pos[element_id]] = round(alpha * 65535) / 65535
        if self.mode is Mode.IC:
            self._load_ic()
        else:
            self._observe()

    def get_coefficient(self, element_id: str) -> float:
        return self._c[self._coef_pos[element_id]]

    def read_adc(self, net_name: str) -> float:
        """Read a named net through the ADC (midtread over [-1, 1]).

        Reading is intended for HALT; reads during OP work but attach a
        SimulationWarning, mirroring slow-ADC practice.
        """
        if net_name not in self._name_pos:
            raise KeyError(f"no net named {net_name!r}")
        if self.mode is Mode.OP:
            warnings.warn("ADC read during OP mode; values move under the converter",
                          SimulationWarning, stacklevel=2)
        v = self._net_values[self._name_pos[net_name]]
        step = 2.0 ** (1 - self.config.adc_bits)
        q = step * round(v / step)
        return max(-1.0, min(1.0, q))

    def value(self, net_name: str) -> float:
        """Full-precision current value of a named net."""
        return self._net_values[self._name_pos[net_name]]


def new_instance(netlist: Netlist, config: SimConfig | None = None) -> MachineInstance:
    """Create a machine in IC mode; ConstructionError on a netlist that
    ``evaluation_order`` rejects or whose nets the resolution cannot quantize."""
    return MachineInstance(netlist, config)


def default_dt(netlist: Netlist) -> float:
    """Step size heuristic: resolve at least 100 steps per fastest gain."""
    integrators = [e for e in netlist.elements.values() if e.kind is Kind.INTEGRATOR]
    k0_max = max((e.params["k0"] for e in integrators), default=1.0)
    fan = max((len(e.inputs) for e in integrators), default=1)
    return min(1e-4, 1.0 / (100.0 * k0_max * fan))
