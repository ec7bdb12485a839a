"""Computing-element semantics, netlist graph and structural validation.

An analog program is a directed graph of computing elements connected by
nets. Every element drives exactly one net; a net may fan out to any
number of element inputs. All signals live in machine units, the
interval [-1, 1]; values that leave it are clamped and flagged as
overloads.

Element semantics (machine convention: summers and integrators invert):

    Summer              out = -(sum of inputs)
    Integrator          out = state; d(state)/dtau = -k0 * (sum of inputs)
    Multiplier          out = x * y
    Coefficient         out = alpha * x, alpha in [0, 1]
    FunctionGenerator   out = piecewise-linear table lookup, end-clamped
    Reference           out = +1 or -1

Netlists are immutable after construction and safe to share between
concurrent simulations. The compiler's sidecar mapping, which ties
source-level signals and parameters to nets and pots, lives here too:
everything that reads a compiled program back needs only this module.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum


class StructuralError(ValueError):
    """A netlist or element is malformed beyond what a report can carry."""


class ScalingError(ValueError):
    """A program or a pot setting does not fit the machine interval."""


class AlgebraicLoopError(StructuralError):
    """An operation that requires a loop-free algebraic graph found cycles."""

    def __init__(self, cycles):
        self.cycles = cycles
        super().__init__(f"algebraic loop(s): {cycles}")


class Kind(str, Enum):
    SUMMER = "summer"
    INTEGRATOR = "integrator"
    MULTIPLIER = "multiplier"
    COEFFICIENT = "coefficient"
    FUNCTION_GENERATOR = "function_generator"
    REFERENCE = "reference"


def lookup_code(table, x: str) -> str:
    """The end-clamped piecewise-linear lookup of the expression ``x`` over
    ``table``, as one parenthesized Python expression.

    ``x`` is bound once, to the temp ``t``. The two end clamps come first,
    then a balanced chain of comparisons picks the segment ``bisect_right``
    would pick, whose value is ``y0 + dy * (t - x0) / dx`` with ``dy`` and
    ``dx`` folded here: the same floats as computing them at run time. A
    NaN fails every comparison and comes out of the last segment as NaN.
    """
    xs = [p[0] for p in table]
    ys = [p[1] for p in table]

    def segments(lo: int, hi: int) -> str:  # segments lo .. hi - 1
        if hi - lo == 1:
            return f"{ys[lo]!r} + {ys[hi] - ys[lo]!r} * (t - {xs[lo]!r}) / {xs[hi] - xs[lo]!r}"
        mid = (lo + hi) // 2
        return f"({segments(lo, mid)}) if t < {xs[mid]!r} else ({segments(mid, hi)})"

    return (f"({ys[0]!r} if (t := {x}) <= {xs[0]!r} else {ys[-1]!r} if t >= {xs[-1]!r} "
            f"else {segments(0, len(xs) - 1)})")


def table_lookup(table):
    """End-clamped piecewise-linear lookup over a breakpoint table: the
    function of ``lookup_code``'s expression."""
    return eval(f"lambda x: {lookup_code(table, 'x')}")


@dataclass(frozen=True)
class KindSpec:
    """What one element kind means.

    ``arity`` is the (min, max) input count, max None for unbounded;
    ``params`` are the parameter keys. ``output`` maps the input
    expressions and the parameter's expression (a function generator's
    table itself) to the Python expression of the element's output; an
    integrator has none, its output is its state.
    """

    arity: tuple
    params: tuple
    output: Callable[[list, str], str] | None = None


KINDS = {
    Kind.SUMMER: KindSpec((1, None), (), lambda x, p: f"-({' + '.join(x)})"),
    Kind.INTEGRATOR: KindSpec((1, None), ("ic", "k0")),
    Kind.MULTIPLIER: KindSpec((2, 2), (), lambda x, p: f"({x[0]}) * ({x[1]})"),
    Kind.COEFFICIENT: KindSpec((1, 1), ("alpha",), lambda x, p: f"{p} * ({x[0]})"),
    Kind.FUNCTION_GENERATOR: KindSpec((1, 1), ("table",), lambda x, p: lookup_code(p, x[0])),
    Kind.REFERENCE: KindSpec((0, 0), ("constant",), lambda x, p: p),
}


def arity_error(kind: Kind, n: int) -> str | None:
    """Why ``n`` inputs do not suit ``kind``, or None if they do."""
    lo, hi = KINDS[kind].arity
    if n < lo or (hi is not None and n > hi):
        return f"{kind.value} takes {lo}..{'N' if hi is None else hi} inputs, got {n}"
    return None


def parameter(kind: Kind, params: dict):
    """The value an element's output reads as its parameter: the pot
    value, the table or the constant; None if the kind has no parameter."""
    return params[KINDS[kind].params[0]] if KINDS[kind].params else None


def is_inverter(e: "Element") -> bool:
    """A single-input summer: it only negates."""
    return e.kind is Kind.SUMMER and len(e.inputs) == 1


def inventory_kind(e: "Element") -> str:
    """The slot kind ``e`` takes on a machine: ``"inverter"`` for a
    single-input summer, else its own kind."""
    return "inverter" if is_inverter(e) else e.kind.value


@dataclass(frozen=True)
class Element:
    """One computing element: identity, kind, parameters and input nets."""

    id: str
    kind: Kind
    params: dict = field(default_factory=dict)
    inputs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.kind is Kind.FUNCTION_GENERATOR and "table" in self.params:
            try:
                table = tuple((float(x), float(y)) for x, y in self.params["table"])
            except (TypeError, ValueError):
                raise StructuralError(
                    f"'table' of params of element {self.id!r} must hold [x, y] pairs") from None
            object.__setattr__(self, "params", {**self.params, "table": table})


def summer(eid: str, inputs) -> Element:
    return Element(eid, Kind.SUMMER, {}, tuple(inputs))


def integrator(eid: str, inputs, ic: float = 0.0, k0: float = 1.0) -> Element:
    return Element(eid, Kind.INTEGRATOR, {"ic": float(ic), "k0": float(k0)}, tuple(inputs))


def multiplier(eid: str, a: str, b: str) -> Element:
    return Element(eid, Kind.MULTIPLIER, {}, (a, b))


def coefficient(eid: str, src: str, alpha: float) -> Element:
    return Element(eid, Kind.COEFFICIENT, {"alpha": float(alpha)}, (src,))


def function_generator(eid: str, src: str, table) -> Element:
    return Element(eid, Kind.FUNCTION_GENERATOR, {"table": table}, (src,))


def reference(eid: str, constant: float) -> Element:
    return Element(eid, Kind.REFERENCE, {"constant": float(constant)}, ())


def element_output(kind: Kind, params: dict, inputs, state: float | None = None) -> float:
    """Evaluate one element given machine-unit input values.

    Evaluates the expression ``KINDS[kind].output`` gives the simulator's
    code generator. Integrators return ``state``; their state evolution
    belongs to the simulator. Raises StructuralError on arity mismatch.
    """
    problem = arity_error(kind, len(inputs))
    if problem:
        raise StructuralError(problem)
    if KINDS[kind].output is None:
        if state is None:
            raise StructuralError("integrator evaluation requires a state")
        return state
    p = parameter(kind, params)
    expr = KINDS[kind].output([f"x[{i}]" for i in range(len(inputs))],
                              p if kind is Kind.FUNCTION_GENERATOR else "p")
    return eval(expr, {"x": list(inputs), "p": p})


@dataclass(frozen=True)
class Net:
    """A single-driver net: the driving element id and an optional name."""

    driver: str
    name: str | None = None


class Netlist:
    """Immutable element graph.

    ``elements`` maps element id to Element, ``nets`` maps net id to Net,
    ``outputs`` lists net names exposed to traces. Construction freezes
    insertion order, which downstream passes rely on for determinism.
    """

    def __init__(self, elements, nets, outputs=()):
        self.elements: dict[str, Element] = {}
        for e in elements:
            if e.id in self.elements:
                raise StructuralError(f"duplicate element id {e.id!r}")
            self.elements[e.id] = e
        self.nets: dict[str, Net] = {}
        for nid, net in nets.items():
            self.nets[nid] = net if isinstance(net, Net) else Net(*net)
        self.outputs: tuple[str, ...] = tuple(outputs)

    @classmethod
    def from_elements(cls, elements, outputs: dict[str, str] | None = None) -> "Netlist":
        """Build a netlist where each element drives a net of the same id.

        ``outputs`` maps output name -> element id.
        """
        outputs = outputs or {}
        names = {eid: name for name, eid in outputs.items()}
        nets = {e.id: Net(e.id, names.get(e.id)) for e in elements}
        return cls(elements, nets, tuple(outputs))

    def counts(self) -> dict[str, int]:
        """Element counts by ``inventory_kind``, in ``Kind`` order with inverters last."""
        out = {k.value: 0 for k in Kind}
        out["inverter"] = 0
        for e in self.elements.values():
            out[inventory_kind(e)] += 1
        return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class Violation:
    element: str
    rule: str
    message: str


def _check_params(e: Element):
    keys = set(e.params)
    want = set(KINDS[e.kind].params)
    if keys != want:
        yield Violation(e.id, "param-range", f"expected params {sorted(want)}, got {sorted(keys)}")
        return
    if e.kind is Kind.INTEGRATOR:
        ic, k0 = e.params["ic"], e.params["k0"]
        if not (math.isfinite(ic) and -1.0 <= ic <= 1.0):
            yield Violation(e.id, "param-range", f"ic {ic} outside [-1, 1]")
        if not (math.isfinite(k0) and k0 > 0):
            yield Violation(e.id, "param-range", f"k0 {k0} must be positive")
    elif e.kind is Kind.COEFFICIENT:
        a = e.params["alpha"]
        if not (math.isfinite(a) and 0.0 <= a <= 1.0):
            yield Violation(e.id, "param-range", f"alpha {a} outside [0, 1]")
    elif e.kind is Kind.REFERENCE:
        if e.params["constant"] not in (1.0, -1.0):
            yield Violation(e.id, "param-range", f"constant {e.params['constant']} not in {{+1, -1}}")
    elif e.kind is Kind.FUNCTION_GENERATOR:
        table = e.params["table"]
        if len(table) < 2:
            yield Violation(e.id, "param-range", "table needs at least 2 breakpoints")
            return
        xs = [p[0] for p in table]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            yield Violation(e.id, "param-range", "table x values must be strictly increasing")
        for x, y in table:
            if not (-1.0 <= x <= 1.0 and -1.0 <= y <= 1.0):
                yield Violation(e.id, "param-range", f"breakpoint ({x}, {y}) outside [-1, 1]")


def validate(netlist: Netlist) -> list[Violation]:
    """Structural validation report; empty means the netlist is well formed.

    Checks the single-driver rule, input arities, parameter ranges, and
    that every declared output name exists. Violations are report
    entries, never exceptions.
    """
    report: list[Violation] = []
    drivers_seen: dict[str, str] = {}
    for nid, net in netlist.nets.items():
        if net.driver not in netlist.elements:
            report.append(Violation(net.driver, "single-driver", f"net {nid!r} driven by unknown element"))
        elif net.driver in drivers_seen:
            report.append(
                Violation(net.driver, "single-driver", f"element drives both {drivers_seen[net.driver]!r} and {nid!r}")
            )
        else:
            drivers_seen[net.driver] = nid
    for e in netlist.elements.values():
        if e.id not in drivers_seen:
            report.append(Violation(e.id, "single-driver", "element drives no net"))
        problem = arity_error(e.kind, len(e.inputs))
        if problem:
            report.append(Violation(e.id, "arity", problem))
        for nid in e.inputs:
            if nid not in netlist.nets:
                report.append(Violation(e.id, "dangling-input", f"input references missing net {nid!r}"))
        report.extend(_check_params(e))
    names = {net.name for net in netlist.nets.values() if net.name}
    for name in netlist.outputs:
        if name not in names:
            report.append(Violation("", "missing-output", f"output {name!r} names no net"))
    return report


def _successors(nodes, edges) -> dict:
    succ = {v: {} for v in nodes}
    for u, v in edges:
        if u in succ and v in succ:
            succ[u][v] = None
    return succ


def topological_order(nodes, edges) -> tuple[list, list]:
    """Kahn's pass (CACM 1962) over ``nodes`` and ``(source, target)`` edges.

    Edges touching other nodes are ignored; duplicates count once.
    Returns ``(order, residue)``. ``order`` holds the sources in node
    order, then each freed node's consumers in first-edge order.
    ``residue`` lists the nodes never freed; it is empty exactly when
    the graph is acyclic.
    """
    succ = _successors(nodes, edges)
    indegree = Counter(v for targets in succ.values() for v in targets)
    order = [v for v in succ if not indegree[v]]
    for u in order:
        for v in succ[u]:
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    return order, [v for v in succ if indegree[v]]


def simple_cycles(nodes, edges):
    """Yield each elementary cycle among ``nodes`` once, from its smallest node.

    Kahn's pass forwards and backwards first drops the nodes no cycle
    passes through. A depth-first search from each remaining node r, in
    sorted order, then visits only nodes greater than r.
    """
    _, nodes = topological_order(nodes, edges)
    _, nodes = topological_order(nodes, [(v, u) for u, v in edges])
    succ = _successors(nodes, edges)
    for r in sorted(succ):
        path = {r: iter(succ[r])}  # path node -> its successors not yet tried
        while path:
            v = next(next(reversed(path.values())), None)
            if v is None:
                path.popitem()
            elif v == r:
                yield list(path)
            elif v > r and v not in path:
                path[v] = iter(succ[v])


def _algebraic_graph(netlist: Netlist):
    """Non-integrator element ids and all (driver, consumer) edges."""
    nodes = [eid for eid, e in netlist.elements.items() if e.kind is not Kind.INTEGRATOR]
    return nodes, [(netlist.nets[nid].driver, e.id) for e in netlist.elements.values() for nid in e.inputs]


def algebraic_loops(netlist: Netlist) -> list[list[str]]:
    """Every element cycle that does not pass through an integrator.

    Feedback through integrators is the normal programming pattern;
    integrator-free cycles have no defined dataflow value. Cycles are
    rotated to start at their smallest id and sorted, so output is
    deterministic.
    """
    return sorted(simple_cycles(*_algebraic_graph(netlist)))


def evaluation_order(netlist: Netlist) -> list[str]:
    """Topological order of the non-integrator elements.

    Integrator outputs are treated as sources (their values come from
    simulator state), so evaluating elements in this order computes every
    net in a single pass. Raises AlgebraicLoopError if cycles remain.
    """
    nodes, edges = _algebraic_graph(netlist)
    order, residue = topological_order(nodes, edges)
    if residue:
        raise AlgebraicLoopError(sorted(simple_cycles(residue, edges)))
    return order


# ---------------------------------------------------------------------------
# JSON wire format. Field names are part of the contract; unknown keys are
# rejected so that format drift fails loudly.

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", float: "a number"}


def json_value(value, kind: type, where: str):
    """``value`` checked to have the JSON type ``kind``; numbers come back as floats."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind):
        raise StructuralError(f"{where} must be {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def json_object(doc, where: str, fields: dict, optional=()) -> dict:
    """The checked fields of the JSON object ``doc``.

    ``fields`` maps each allowed key to its JSON type. Every key outside
    ``optional`` must be present; a null optional value counts as absent.
    """
    extra = set(json_value(doc, dict, where)) - set(fields)
    if extra:
        raise StructuralError(f"unknown key(s) {sorted(extra)} in {where}")
    out = {}
    for key, kind in fields.items():
        if doc.get(key) is None and key in optional:
            continue
        if key not in doc:
            raise StructuralError(f"missing key {key!r} in {where}")
        out[key] = json_value(doc[key], kind, f"{key!r} of {where}")
    return out


def netlist_to_dict(netlist: Netlist) -> dict:
    elements = []
    for e in netlist.elements.values():
        params = dict(e.params)
        if "table" in params:
            params["table"] = [list(p) for p in params["table"]]
        elements.append({"id": e.id, "kind": e.kind.value, "params": params, "inputs": list(e.inputs)})
    nets = [{"id": nid, "driver": net.driver, "name": net.name} for nid, net in netlist.nets.items()]
    return {"elements": elements, "nets": nets, "outputs": list(netlist.outputs)}


def netlist_from_dict(doc: dict) -> Netlist:
    doc = json_object(doc, "netlist", {"elements": list, "nets": list, "outputs": list})
    elements = []
    for ed in doc["elements"]:
        where = f"element {ed['id']!r}" if isinstance(ed, dict) and "id" in ed else "element"
        ed = json_object(ed, where, {"id": str, "kind": str, "params": dict, "inputs": list},
                         optional=("params", "inputs"))
        try:
            kind = Kind(ed["kind"])
        except ValueError:
            raise StructuralError(f"unknown element kind {ed['kind']!r}") from None
        keys = KINDS[kind].params
        params = json_object(ed.get("params", {}), f"params of {where}",
                             {k: list if k == "table" else float for k in keys}, optional=keys)
        inputs = tuple(json_value(n, str, f"input of {where}") for n in ed.get("inputs", []))
        elements.append(Element(ed["id"], kind, params, inputs))
    nets = {}
    for nd in doc["nets"]:
        where = f"net {nd['id']!r}" if isinstance(nd, dict) and "id" in nd else "net"
        nd = json_object(nd, where, {"id": str, "driver": str, "name": str}, optional=("name",))
        nets[nd["id"]] = Net(nd["driver"], nd.get("name"))
    outputs = tuple(json_value(name, str, "netlist output") for name in doc["outputs"])
    return Netlist(elements, nets, outputs)


def save_netlist(netlist: Netlist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(netlist_to_dict(netlist), fh, indent=2)
        fh.write("\n")


def load_netlist(path) -> Netlist:
    with open(path, encoding="utf-8") as fh:
        return netlist_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# The compiler's sidecar mapping (``*.map.json``).

@dataclass(frozen=True)
class SignalBinding:
    """Where a source-level signal lives in the netlist.

    net value = parity * signal / scale.
    """

    net: str
    parity: int
    scale: float = 1.0


@dataclass(frozen=True)
class ParamBinding:
    """A source parameter realized by one coefficient: alpha = |scale * value|."""

    element: str
    scale: float
    value: float


@dataclass
class Mapping:
    """Compiler sidecar: signal and parameter bindings plus time scaling."""

    signals: dict
    params: dict
    lam: float = 1.0
    k0: float = 1.0
    horizon_machine: float | None = None

    def to_dict(self) -> dict:
        return {
            "signals": {
                name: {"net": b.net, "parity": b.parity, "amplitude_scale": b.scale}
                for name, b in self.signals.items()
            },
            "params": {
                name: {"element": b.element, "scale": b.scale, "value": b.value}
                for name, b in self.params.items()
            },
            "lambda": self.lam,
            "k0": self.k0,
            "horizon_machine": self.horizon_machine,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Mapping":
        fields = {"signals": dict, "params": dict, "lambda": float, "k0": float,
                  "horizon_machine": float}
        doc = json_object(doc, "mapping file", fields, optional=fields)
        signals, params = {}, {}
        for name, d in doc.get("signals", {}).items():
            d = json_object(d, f"signal {name!r}",
                            {"net": str, "parity": float, "amplitude_scale": float})
            signals[name] = SignalBinding(d["net"], int(d["parity"]), d["amplitude_scale"])
        for name, d in doc.get("params", {}).items():
            d = json_object(d, f"param {name!r}", {"element": str, "scale": float, "value": float})
            params[name] = ParamBinding(d["element"], d["scale"], d["value"])
        return cls(signals, params, doc.get("lambda", 1.0), doc.get("k0", 1.0),
                   doc.get("horizon_machine"))

    def check(self, netlist) -> "Mapping":
        """This mapping, if its bindings cover ``netlist``'s outputs and name
        its nets and coefficient elements; else StructuralError."""
        for name in netlist.outputs:
            if name not in self.signals:
                raise StructuralError(f"output {name!r} has no signal binding")
        for name, b in self.signals.items():
            if b.net not in netlist.nets:
                raise StructuralError(f"signal {name!r} binds missing net {b.net!r}")
        for name, b in self.params.items():
            e = netlist.elements.get(b.element)
            if e is None or e.kind is not Kind.COEFFICIENT:
                raise StructuralError(f"param {name!r} binds {b.element!r}, not a coefficient element")
        return self

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Mapping":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
