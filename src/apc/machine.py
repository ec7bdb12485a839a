"""Computing-element semantics, netlist graph and structural validation.

An analog program is a directed graph of computing elements connected by
nets. Every element drives exactly one net, its output, which bears the
element's id; a net may fan out to any number of element inputs. All
signals live in machine units, the interval [-1, 1]; values that leave it
are clamped and flagged as overloads.

Element semantics (machine convention: summers and integrators invert):

    Summer              out = -(sum of inputs)
    Integrator          out = state; d(state)/dtau = -k0 * (sum of inputs)
    Multiplier          out = x * y
    Coefficient         out = alpha * x, alpha in [0, 1]
    FunctionGenerator   out = piecewise-linear table lookup, end-clamped
    Reference           out = +1 or -1

Netlists are immutable after construction and safe to share between
concurrent simulations. A net's name, if it has one, is a field of the
element that drives it, in memory as on file; no netlist holds two
elements of one name, and no file with the ``nets`` table of earlier
versions is loaded: its source must be compiled again. The compiler's
sidecar mapping, which ties source-level signals and parameters to nets
and pots, lives here too: everything that reads a compiled program back
needs only this module.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from enum import Enum
from functools import reduce
from graphlib import CycleError, TopologicalSorter
from operator import add

from .record import Frozen, Record


class StructuralError(ValueError):
    """A netlist or element is malformed beyond what a report can carry."""


class ScalingError(ValueError):
    """A program or a pot setting does not fit the machine interval."""


class ConstructionError(ValueError):
    """A machine that cannot be built: a netlist ``evaluation_order``
    rejects, or a resolution too fine to quantize one of its nets."""


class AlgebraicLoopError(ConstructionError):
    """A netlist holds a cycle through no integrator; ``cycles`` lists one,
    each element feeding the next and the last the first."""

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
    ``dx`` folded here: the same floats as computing them at run time. The
    exact no-ops ``1.0 *``, ``/ 1.0`` and ``t - 0.0`` are left out; ``t -
    -0.0`` stays, since it turns a -0.0 into +0.0. A NaN fails every
    comparison and comes out of the last segment as NaN.
    """
    xs = [p[0] for p in table]
    ys = [p[1] for p in table]

    def segments(lo: int, hi: int) -> str:  # segments lo .. hi - 1
        if hi - lo == 1:
            x0, dy, dx = xs[lo], ys[hi] - ys[lo], xs[hi] - xs[lo]
            u = "t" if x0 == 0.0 and math.copysign(1.0, x0) > 0 else f"(t - {x0!r})"
            u = u if dy == 1.0 else f"{dy!r} * {u}"
            return f"{ys[lo]!r} + {u}" + ("" if dx == 1.0 else f" / {dx!r}")
        mid = (lo + hi) // 2
        return f"({segments(lo, mid)}) if t < {xs[mid]!r} else ({segments(mid, hi)})"

    return (f"({ys[0]!r} if (t := {x}) <= {xs[0]!r} else {ys[-1]!r} if t >= {xs[-1]!r} "
            f"else {segments(0, len(xs) - 1)})")


def table_bound(table) -> float:
    """The largest |lookup| over ``table``: the ys of the end clamps and of
    each segment's start, and each segment's formula at its x1 (monotonic
    in x, so the segment lies between), which can round one ulp past y1."""
    ys = [y for _, y in table]
    ys += [y0 + (y1 - y0) * (x1 - x0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(table, table[1:])]
    return max(map(abs, ys))


class KindSpec(Frozen):
    """What one element kind means.

    ``arity`` is the (min, max) input count, max None for unbounded;
    ``params`` are the parameter keys. ``output`` maps the input
    expressions and the parameter's expression (a function generator's
    table itself) to the Python expression of the element's output.
    ``bound`` maps bounds on the inputs' magnitudes and the parameter to a
    bound on the output's, by the output's own operations in their order,
    which rounding (monotonic) keeps a bound; a coefficient's ignores the
    pot, which an update may set to 1. An integrator has neither: its
    output is its state, which the value model holds within 1.
    """

    __slots__ = ("arity", "params", "output", "bound")
    _defaults = {"output": None, "bound": None}


KINDS = {
    Kind.SUMMER: KindSpec((1, None), (), lambda x, p: f"-({' + '.join(x)})", lambda b, p: reduce(add, b)),
    Kind.INTEGRATOR: KindSpec((1, None), ("ic", "k0")),
    Kind.MULTIPLIER: KindSpec((2, 2), (), lambda x, p: f"({x[0]}) * ({x[1]})", lambda b, p: b[0] * b[1]),
    Kind.COEFFICIENT: KindSpec((1, 1), ("alpha",), lambda x, p: f"{p} * ({x[0]})", lambda b, p: b[0]),
    Kind.FUNCTION_GENERATOR: KindSpec((1, 1), ("table",), lambda x, p: lookup_code(p, x[0]),
                                      lambda b, p: table_bound(p)),
    Kind.REFERENCE: KindSpec((0, 0), ("constant",), lambda x, p: p, lambda b, p: abs(p)),
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


def _as_float(x) -> float:
    """``float(x)``; an integer past the float range reads as 1e400 or -1e400 does."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class Element(Frozen):
    """One computing element: identity, kind, parameters, input nets and
    the name of the net it drives, None for an unnamed net."""

    __slots__ = ("id", "kind", "params", "inputs", "name")

    def __init__(self, id: str, kind: Kind, params: dict | None = None, inputs: tuple = (),
                 name: str | None = None):
        params = {} if params is None else params
        if kind is Kind.FUNCTION_GENERATOR and "table" in params:
            try:
                pairs = [(x, y) for x, y in params["table"]]
            except (TypeError, ValueError):
                raise StructuralError(
                    f"'table' of params of element {id!r} must hold [x, y] pairs") from None
            where = f"breakpoint of 'table' of params of element {id!r}"
            table = tuple((json_value(x, float, where), json_value(y, float, where))
                          for x, y in pairs)
            params = {**params, "table": table}
        super().__init__(id, kind, params, tuple(inputs), name)


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


class Netlist:
    """Immutable element graph.

    ``elements`` maps element id to Element, each driving the net of its
    id; ``names`` maps each element's name to its id, and ``outputs`` lists
    the names exposed to traces, all of ``names`` by default. Two elements
    of one id or of one name are a StructuralError. Construction freezes
    insertion order, which downstream passes rely on for determinism.
    """

    def __init__(self, elements, outputs=None):
        self.elements: dict[str, Element] = {}
        self.names: dict[str, str] = {}
        for e in elements:
            if e.id in self.elements:
                raise StructuralError(f"duplicate element id {e.id!r}")
            if e.name in self.names:
                raise StructuralError(
                    f"elements {self.names[e.name]!r} and {e.id!r} are both named {e.name!r}")
            self.elements[e.id] = e
            if e.name is not None:
                self.names[e.name] = e.id
        self.outputs: tuple[str, ...] = tuple(self.names if outputs is None else outputs)

    def counts(self) -> dict[str, int]:
        """Element counts by ``inventory_kind``, in ``Kind`` order with inverters last."""
        out = {k.value: 0 for k in Kind}
        out["inverter"] = 0
        for e in self.elements.values():
            out[inventory_kind(e)] += 1
        return {k: v for k, v in out.items() if v}


class Violation(Frozen):
    __slots__ = ("element", "rule", "message")

    def __str__(self) -> str:  # element: rule: message, without an empty element
        return ": ".join(filter(None, (self.element, self.rule, self.message)))


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

    Checks input arities, that every input names an element's net,
    parameter ranges, and that each output names a net and is listed
    once. Violations are report entries, never exceptions.
    """
    report: list[Violation] = []
    for e in netlist.elements.values():
        problem = arity_error(e.kind, len(e.inputs))
        if problem:
            report.append(Violation(e.id, "arity", problem))
        for nid in e.inputs:
            if nid not in netlist.elements:
                report.append(Violation(e.id, "dangling-input", f"input references missing net {nid!r}"))
        report.extend(_check_params(e))
    for name, count in Counter(netlist.outputs).items():
        if name not in netlist.names:
            report.append(Violation("", "missing-output", f"output {name!r} names no net"))
        if count > 1:
            report.append(Violation("", "duplicate-output", f"output {name!r} is listed {count} times"))
    return report


def evaluation_order(netlist: Netlist) -> list[str]:
    """The one check of a netlist, and the order its elements evaluate in.

    Raises ConstructionError listing every violation ``validate``
    reports, then AlgebraicLoopError naming one cycle of non-integrator
    elements if there is any (graphlib's, from its smallest element id):
    such a loop has no defined value. Otherwise returns the topological
    order of the non-integrator elements that ``graphlib`` gives: the
    sources in netlist order, then each freed element's readers in
    netlist order. Integrator outputs are sources (their values come
    from simulator state), so evaluating elements in this order computes
    every net in a single pass.
    """
    report = validate(netlist)
    if report:
        raise ConstructionError(f"netlist does not validate: {'; '.join(map(str, report))}")
    algebraic = {eid: e for eid, e in netlist.elements.items() if e.kind is not Kind.INTEGRATOR}
    sorter = TopologicalSorter(dict.fromkeys(algebraic, ()))
    for eid, e in algebraic.items():
        sorter.add(eid, *dict.fromkeys(n for n in e.inputs if n in algebraic))
    try:
        return list(sorter.static_order())
    except CycleError as err:
        cycle = err.args[1][:-1]
        i = cycle.index(min(cycle))
        raise AlgebraicLoopError([cycle[i:] + cycle[:i]]) from None


def net_bounds(netlist: Netlist, order: list[str]) -> dict[str, float]:
    """A bound on each net's magnitude, by element id, while the states
    are finite: one pass of ``KINDS``' bounds over ``evaluation_order``'s
    ``order``, each integrator at 1 (the rails hold its state)."""
    bounds = {eid: 1.0 for eid, e in netlist.elements.items() if e.kind is Kind.INTEGRATOR}
    for eid in order:
        e = netlist.elements[eid]
        bounds[eid] = KINDS[e.kind].bound([bounds[n] for n in e.inputs], parameter(e.kind, e.params))
    return {eid: bounds[eid] for eid in netlist.elements}


# ---------------------------------------------------------------------------
# JSON wire format. Field names are part of the contract; unknown keys are
# rejected so that format drift fails loudly.

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", float: "a number"}


def json_value(value, kind: type, where: str):
    """``value`` checked to have the JSON type ``kind``; numbers come back as floats."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return _as_float(value)
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


def _finite(doc: dict, key: str, where: str, positive: bool = False) -> float:
    """``doc[key]``, checked to be finite and, where asked, positive."""
    if math.isfinite(doc[key]) and (doc[key] > 0 or not positive):
        return doc[key]
    raise StructuralError(f"{key!r} of {where} must be {'positive and ' * positive}finite, "
                          f"got {doc[key]!r}")


def netlist_to_dict(netlist: Netlist) -> dict:
    """The JSON document of a netlist: its elements, each with its
    ``name`` if it has one, and its outputs."""
    elements = []
    for e in netlist.elements.values():
        params = dict(e.params)
        if "table" in params:
            params["table"] = [list(p) for p in params["table"]]
        ed = {"id": e.id, "kind": e.kind.value, "params": params, "inputs": list(e.inputs)}
        if e.name is not None:
            ed["name"] = e.name
        elements.append(ed)
    return {"elements": elements, "outputs": list(netlist.outputs)}


def netlist_from_dict(doc: dict) -> Netlist:
    """The netlist of a JSON document, each element's optional ``name``
    naming its net (an empty name names nothing); else StructuralError,
    which ``Netlist`` raises for two elements of one name, and which names
    the unknown key of a file with the ``nets`` table of earlier versions:
    its source must be compiled again."""
    doc = json_object(doc, "netlist", {"elements": list, "outputs": list})
    elements = []
    for ed in doc["elements"]:
        where = f"element {ed['id']!r}" if isinstance(ed, dict) and "id" in ed else "element"
        ed = json_object(ed, where, {"id": str, "kind": str, "params": dict, "inputs": list,
                                     "name": str}, optional=("params", "inputs", "name"))
        try:
            kind = Kind(ed["kind"])
        except ValueError:
            raise StructuralError(f"unknown element kind {ed['kind']!r}") from None
        keys = KINDS[kind].params
        params = json_object(ed.get("params", {}), f"params of {where}",
                             {k: list if k == "table" else float for k in keys}, optional=keys)
        inputs = tuple(json_value(n, str, f"input of {where}") for n in ed.get("inputs", []))
        elements.append(Element(ed["id"], kind, params, inputs, ed.get("name") or None))
    outputs = tuple(json_value(name, str, "netlist output") for name in doc["outputs"])
    return Netlist(elements, outputs)


def save_netlist(netlist: Netlist, path) -> None:
    doc = netlist_to_dict(netlist)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_netlist(path) -> Netlist:
    with open(path, encoding="utf-8") as fh:
        return netlist_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# The compiler's sidecar mapping (``*.map.json``).

class SignalBinding(Frozen):
    """Where a source-level signal lives in the netlist.

    net value = parity * signal / scale.
    """

    __slots__ = ("net", "parity", "scale")
    _defaults = {"scale": 1.0}


class ParamBinding(Frozen):
    """A source parameter realized by one coefficient: alpha = |scale * value|."""

    __slots__ = ("element", "scale", "value")


class Mapping(Record):
    """Compiler sidecar: signal and parameter bindings plus time scaling."""

    __slots__ = ("signals", "params", "lam", "k0", "horizon_machine")
    _defaults = {"lam": 1.0, "k0": 1.0, "horizon_machine": None}

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
        doc = {"lambda": 1.0, "k0": 1.0} | json_object(doc, "mapping file", fields, fields)
        signals, params = {}, {}
        for name, d in doc.get("signals", {}).items():
            where = f"signal {name!r}"
            d = json_object(d, where, {"net": str, "parity": float, "amplitude_scale": float})
            if d["parity"] not in (1, -1):
                raise StructuralError(f"'parity' of {where} must be 1 or -1, got {d['parity']!r}")
            signals[name] = SignalBinding(d["net"], int(d["parity"]),
                                          _finite(d, "amplitude_scale", where, positive=True))
        for name, d in doc.get("params", {}).items():
            where = f"param {name!r}"
            d = json_object(d, where, {"element": str, "scale": float, "value": float})
            params[name] = ParamBinding(d["element"], _finite(d, "scale", where),
                                        _finite(d, "value", where))
        return cls(signals, params, _finite(doc, "lambda", "mapping file", positive=True),
                   _finite(doc, "k0", "mapping file", positive=True), doc.get("horizon_machine"))

    def check(self, netlist) -> "Mapping":
        """This mapping, if its bindings cover ``netlist``'s outputs at their
        nets and name its nets and coefficient elements; else StructuralError."""
        for name in netlist.outputs:
            b, net = self.signals.get(name), netlist.names.get(name)
            if b is None:
                raise StructuralError(f"output {name!r} has no signal binding")
            if net is not None and b.net != net:  # else validation names the output
                raise StructuralError(f"signal {name!r} binds net {b.net!r}, "
                                      f"but the netlist's output {name!r} is net {net!r}")
        for name, b in self.signals.items():
            if b.net not in netlist.elements:
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
