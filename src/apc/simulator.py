"""Netlist execution: the IC/OP/HALT machine with a fixed-step engine.

A MachineInstance owns integrator states and advances them with the
classical 4th-order fixed-step scheme, re-evaluating the algebraic
element graph at every internal stage. After each completed step every
net value is quantized to the configured resolution grid and clamped to
[-1, 1]; clamps are logged as overload events (or abort the run in
strict mode). An integrator's state accumulates at full precision and
only its output is quantized, so increments below the grid are not lost;
a state that reaches a rail is clamped there and logged.
Digital-potentiometer updates and ADC readout model the hybrid-computer
attachment points.

The element graph is compiled once per instance into straight-line
Python code, which keeps long runs (millions of element evaluations)
fast while staying bit-deterministic.

Instances are single-threaded. A parameter sweep reuses one instance,
cycling it IC -> OP -> HALT once per value.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .machine import (
    KINDS,
    AlgebraicLoopError,
    Kind,
    Netlist,
    StructuralError,
    evaluation_order,
    parameter,
    validate,
)


class ConstructionError(ValueError):
    """The netlist cannot be instantiated (validation or loop failure)."""


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


#: Legal mode transitions. OP->IC and IC->HALT are rejected: a run must
#: pass through HALT before its states may be thrown away.
LEGAL_TRANSITIONS = frozenset(
    {
        (Mode.IC, Mode.OP),
        (Mode.OP, Mode.HALT),
        (Mode.HALT, Mode.OP),
        (Mode.HALT, Mode.IC),
        (Mode.IC, Mode.IC),
        (Mode.OP, Mode.OP),
        (Mode.HALT, Mode.HALT),
    }
)


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation parameters.

    ``resolution`` is the machine's value grid in machine units; 0 means
    ideal (quantization off). ``sample_every`` decimates the trace.
    """

    dt: float = 1e-4
    resolution: float = 0.0
    adc_bits: int = 12
    strict_overload: bool = False
    sample_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not (0.0 <= self.resolution < 1.0):
            raise ValueError("resolution must lie in [0, 1)")
        if not (1 <= self.adc_bits <= 32):
            raise ValueError("adc_bits must lie in 1..32")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


@dataclass(frozen=True)
class OverloadEvent:
    time: float
    element: str
    magnitude: float


@dataclass
class Trace:
    """Sampled machine-unit values of the named nets plus the overload log."""

    tau: list
    series: dict
    overloads: list
    mapping: object | None = None
    time_label: str = "tau"

    def final(self) -> dict:
        return {name: values[-1] for name, values in self.series.items()}

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        names = list(self.series)
        writer.writerow([self.time_label] + names)
        columns = [self.series[n] for n in names]
        for i, t in enumerate(self.tau):
            writer.writerow([repr(t)] + [repr(col[i]) for col in columns])

    def write_overloads_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "element", "magnitude"])
        for ev in self.overloads:
            writer.writerow([repr(ev.time), ev.element, repr(ev.magnitude)])

    def save(self, path, overload_path=None) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self.write_csv(fh)
        if overload_path is not None:
            with open(overload_path, "w", encoding="utf-8", newline="") as fh:
                self.write_overloads_csv(fh)


# --- code generation -------------------------------------------------------

def _generate(netlist: Netlist):
    """Compile the element graph into straight-line step/eval functions.

    ``_step(s, c, dt)`` advances the state list one classical 4th-order
    step (4 algebraic passes); ``_nets(s, c)`` returns every net value in
    netlist order. ``c`` is the live coefficient array so potentiometer
    updates need no recompilation.
    """
    elements = netlist.elements
    integrators = [e for e in elements.values() if e.kind is Kind.INTEGRATOR]
    state_of = {e.id: i for i, e in enumerate(integrators)}
    coefficients = [e for e in elements.values() if e.kind is Kind.COEFFICIENT]
    coef_of = {e.id: i for i, e in enumerate(coefficients)}
    order = evaluation_order(netlist)
    local_of = {eid: f"v{i}" for i, eid in enumerate(order)}
    namespace: dict = {}
    param_of: dict[str, str | None] = {}  # element id -> its parameter's expression
    for i, eid in enumerate(order):
        e = elements[eid]
        p = parameter(e.kind, e.params)
        if e.kind is Kind.COEFFICIENT:
            p = f"c[{coef_of[eid]}]"  # the live pot slot
        elif callable(p):
            namespace[f"_fg{i}"] = p
            p = f"_fg{i}"
        elif p is not None:
            p = repr(p)
        param_of[eid] = p

    def emit_pass(state_fmt, prefix: str):
        """Lines evaluating all algebraic elements; returns (lines, net_expr)."""

        def output(e) -> str:
            return KINDS[e.kind].output([net_expr(n) for n in e.inputs], param_of[e.id])

        def net_expr(net_id: str) -> str:
            driver = netlist.nets[net_id].driver
            e = elements[driver]
            if e.kind is Kind.INTEGRATOR:
                return state_fmt(state_of[driver])
            if e.kind is Kind.REFERENCE:
                return output(e)  # a constant, folded into uses
            return prefix + local_of[driver]

        lines = [f"    {prefix}{local_of[eid]} = {output(elements[eid])}"
                 for eid in order if elements[eid].kind is not Kind.REFERENCE]
        return lines, net_expr

    def emit_derivs(net_expr, tag: str) -> list[str]:
        lines = []
        for i, e in enumerate(integrators):
            total = " + ".join(net_expr(n) for n in e.inputs)
            lines.append(f"    k{tag}{i} = {-e.params['k0']!r} * ({total})")
        return lines

    nstates = len(integrators)
    src = ["def _nets(s, c):"]
    lines, net_expr = emit_pass(lambda i: f"s[{i}]", "")
    src += lines
    rets = [net_expr(nid) for nid in netlist.nets]
    src.append(f"    return [{', '.join(rets)}]")

    src.append("def _step(s, c, dt):")
    if nstates == 0:
        src.append("    return []")
    else:
        for i in range(nstates):
            src.append(f"    as{i} = s[{i}]")
        for tag, base, scale in (("a", None, None), ("b", "a", "0.5 * dt"),
                                 ("d", "b", "0.5 * dt"), ("e", "d", "dt")):
            if base is not None:
                for i in range(nstates):
                    src.append(f"    {tag}s{i} = as{i} + ({scale}) * k{base}{i}")
            lines, net_expr = emit_pass(lambda i, t=tag: f"{t}s{i}", f"{tag}_")
            src += lines
            src += emit_derivs(net_expr, tag)
        src.append("    r = dt / 6.0")
        news = [f"as{i} + r * (ka{i} + 2.0 * kb{i} + 2.0 * kd{i} + ke{i})" for i in range(nstates)]
        src.append(f"    return [{', '.join(news)}]")

    exec(compile("\n".join(src), "<netlist>", "exec"), namespace)
    net_ids = list(netlist.nets)
    algebraic = [
        i for i, nid in enumerate(net_ids)
        if elements[netlist.nets[nid].driver].kind is not Kind.INTEGRATOR
    ]
    return namespace["_nets"], namespace["_step"], integrators, coefficients, net_ids, algebraic


class MachineInstance:
    """One analog machine loaded with a netlist, in IC mode after creation."""

    def __init__(self, netlist: Netlist, config: SimConfig | None = None):
        report = validate(netlist)
        if report:
            raise ConstructionError(f"netlist does not validate: {[str(v) for v in report]}")
        try:
            (self._nets_fn, self._step_fn, self._integrators, self._coefficients,
             self._net_ids, algebraic) = _generate(netlist)
        except AlgebraicLoopError as exc:
            raise ConstructionError(str(exc)) from exc
        self.netlist = netlist
        self.config = config or SimConfig()
        self._net_pos = {nid: i for i, nid in enumerate(self._net_ids)}
        self._name_pos = {
            net.name: self._net_pos[nid] for nid, net in netlist.nets.items() if net.name
        }
        self._driver_of = [netlist.nets[nid].driver for nid in self._net_ids]
        self._coef_pos = {e.id: i for i, e in enumerate(self._coefficients)}
        self._c = [e.params["alpha"] for e in self._coefficients]
        # The nets the value model must touch: an integrator net is its
        # state, already clamped, so it changes only when quantized.
        self._observed = (range(len(self._net_ids)) if self.config.resolution > 0.0
                          else algebraic)
        self.mode = Mode.IC
        self.tau = 0.0
        self._load_ic()

    # -- mode machine ---------------------------------------------------

    def _load_ic(self):
        self._s = [e.params["ic"] for e in self._integrators]
        self.tau = 0.0
        self.overloads: list[OverloadEvent] = []
        self._eval_nets(abort=False)

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

    def _process(self, v: float, element: str, abort: bool, eps: float) -> float:
        """Quantize ``v`` to the grid ``eps`` (0: off), reject a non-finite
        value, clamp to [-1, 1] and log the overload."""
        if eps > 0.0:
            v = eps * round(v / eps)
        if not math.isfinite(v):
            raise StructuralError(f"non-finite value at element {element!r}")
        if v > 1.0 or v < -1.0:
            self.overloads.append(OverloadEvent(self.tau, element, abs(v)))
            if abort and self.config.strict_overload:
                raise OverloadError(element, self.tau, abs(v))
            v = 1.0 if v > 0 else -1.0
        return v

    def _eval_nets(self, abort: bool = True):
        vals = self._nets_fn(self._s, self._c)
        eps = self.config.resolution
        for i in self._observed:
            vals[i] = self._process(vals[i], self._driver_of[i], abort, eps)
        self._net_values = vals

    def step(self, dt: float | None = None) -> None:
        """Advance one fixed step of size ``dt`` (OP mode only)."""
        if self.mode is not Mode.OP:
            raise ModeError("step requires OP mode")
        h = self.config.dt if dt is None else dt
        if not (h > 0):
            raise ValueError("dt must be positive")
        self._advance(h, self.tau + h)

    def _advance(self, h: float, tau: float) -> None:
        """One step of size ``h`` that ends at time ``tau``, which overloads carry."""
        new_s = self._step_fn(self._s, self._c, h)
        self.tau = tau
        self._s = [  # full precision (eps 0): clamped and logged, never quantized
            self._process(v, e.id, True, 0.0) for v, e in zip(new_s, self._integrators)
        ]
        self._eval_nets()

    def run(self, tau_end: float) -> Trace:
        """Run IC/OP to ``tau_end``, sampling the named nets; end in HALT.

        From IC mode the run starts at the initial conditions; from OP it
        continues from the current time. Strict overloads abort.
        """
        if self.mode is Mode.IC:
            self.set_mode(Mode.OP)
        elif self.mode is not Mode.OP:
            raise ModeError("run requires IC or OP mode")
        every = self.config.sample_every
        dt = self.config.dt
        t0 = self.tau
        remaining = tau_end - t0
        nsteps = 0 if remaining <= 0 else math.ceil(remaining / dt - 1e-9)

        names = list(self.netlist.outputs)
        positions = [self._name_pos[n] for n in names]
        tau_samples = [t0]
        series: dict[str, list] = {n: [self._net_values[p]] for n, p in zip(names, positions)}
        for i in range(1, nsteps + 1):
            self._advance(dt, t0 + i * dt)  # exact time axis, no accumulation drift
            if i % every == 0 or i == nsteps:
                tau_samples.append(self.tau)
                for n, p in zip(names, positions):
                    series[n].append(self._net_values[p])
        self.set_mode(Mode.HALT)
        return Trace(tau_samples, series, list(self.overloads))

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
            self._eval_nets(abort=False)

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
    """Create a machine in IC mode; fails on validation errors or loops."""
    return MachineInstance(netlist, config)


def default_dt(netlist: Netlist) -> float:
    """Step size heuristic: resolve at least 100 steps per fastest gain."""
    integrators = [e for e in netlist.elements.values() if e.kind is Kind.INTEGRATOR]
    k0_max = max((e.params["k0"] for e in integrators), default=1.0)
    fan = max((len(e.inputs) for e in integrators), default=1)
    return min(1e-4, 1.0 / (100.0 * k0_max * fan))
