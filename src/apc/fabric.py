"""Mapping compiled netlists onto fixed machine inventories.

A machine offers a fixed number of slots per element kind behind a full
crossbar, so placement reduces to counting plus deterministic slot
assignment. Single-input summers may occupy dedicated inverter slots
(preferred) or general summer slots; that substitution is resolved
greedily, which is optimal under full-crossbar counting. Reference
rails are not inventoried: each reference element becomes a tap on the
+1 or -1 rail.

The built-in spec ``that`` models a small educational analog computer
with five integrators, four summers, four sign-inverters, two
multipliers and eight coefficient potentiometers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .machine import (AlgebraicLoopError, Element, Kind, Net, Netlist, algebraic_loops,
                      inventory_kind, json_object, validate)

_INVENTORY_KINDS = ("integrator", "summer", "inverter", "multiplier",
                    "coefficient", "function_generator")

_SLOT_PREFIX = {
    "integrator": "INT",
    "summer": "SUM",
    "inverter": "INV",
    "multiplier": "MUL",
    "coefficient": "POT",
    "function_generator": "FGEN",
}


class ResourceError(ValueError):
    """The netlist needs more elements than the machine offers."""

    def __init__(self, machine: str, deficits: dict):
        self.machine = machine
        self.deficits = dict(deficits)
        short = ", ".join(f"{k}: {v}" for k, v in self.deficits.items())
        super().__init__(f"netlist does not fit machine {machine!r}; missing {short}")


@dataclass(frozen=True)
class MachineSpec:
    name: str
    inventory: dict
    crossbar: str = "full"

    def __post_init__(self):
        unknown = set(self.inventory) - set(_INVENTORY_KINDS)
        if unknown:
            raise ValueError(f"unknown inventory kind(s) {sorted(unknown)}")
        for kind, v in self.inventory.items():
            if not (math.isfinite(v) and v >= 0 and v == int(v)):
                raise ValueError(f"inventory count of {kind} must be a non-negative integer, got {v!r}")
        if self.crossbar != "full":
            raise ValueError("only full crossbars are modeled")

    def count(self, kind: str) -> int:
        return int(self.inventory.get(kind, 0))


THAT = MachineSpec("that", {
    "integrator": 5,
    "summer": 4,
    "inverter": 4,
    "multiplier": 2,
    "coefficient": 8,
    "function_generator": 0,
})

BUILTIN_SPECS = {"that": THAT}


def load_machine_spec(source: str) -> MachineSpec:
    """A built-in spec name or a JSON file {name, inventory, crossbar}."""
    if source in BUILTIN_SPECS:
        return BUILTIN_SPECS[source]
    with open(source, encoding="utf-8") as fh:
        doc = json_object(json.load(fh), "machine spec",
                          {"name": str, "inventory": dict, "crossbar": str},
                          optional=("inventory", "crossbar"))
    inventory = json_object(doc.get("inventory", {}), "inventory",
                            dict.fromkeys(_INVENTORY_KINDS, float), optional=_INVENTORY_KINDS)
    return MachineSpec(doc["name"], inventory, doc.get("crossbar", "full"))


@dataclass
class PatchAssignment:
    """Element-to-slot mapping plus the ordered patch connection list."""

    machine: str
    slot_of: dict
    patches: list = field(default_factory=list)  # (src_slot, dst_slot, input index)
    settings: list = field(default_factory=list)  # (slot, alpha)


def _demand(netlist: Netlist):
    by_kind: dict[str, list] = {k: [] for k in (*_INVENTORY_KINDS, "reference")}
    for e in netlist.elements.values():
        by_kind[inventory_kind(e)].append(e.id)
    singles, multis, refs = (by_kind.pop(k) for k in ("inverter", "summer", "reference"))
    return singles, multis, by_kind, refs


def map_netlist(netlist: Netlist, spec: MachineSpec) -> PatchAssignment:
    """Place every element on a physical slot, or raise ResourceError.

    With a full crossbar, mapping succeeds exactly when per-kind demand
    fits supply after placing single-input summers into inverter slots
    first. On failure the error lists the per-kind deficit, which equals
    demand minus supply under that optimal substitution. A netlist that
    fails validation or has an algebraic loop raises ValueError.
    """
    problems = validate(netlist)
    if problems:
        raise ValueError(f"netlist does not validate: {[str(v) for v in problems]}")
    loops = algebraic_loops(netlist)
    if loops:
        raise AlgebraicLoopError(loops)
    singles, multis, by_kind, refs = _demand(netlist)

    deficits = {}
    for kind, ids in by_kind.items():
        if len(ids) > spec.count(kind):
            deficits[kind] = len(ids) - spec.count(kind)
    inverter_used = min(len(singles), spec.count("inverter"))
    summer_demand = len(multis) + (len(singles) - inverter_used)
    if summer_demand > spec.count("summer"):
        deficits["summer"] = summer_demand - spec.count("summer")
    if deficits:
        raise ResourceError(spec.name, deficits)

    slot_of = {}
    counters = {prefix: 0 for prefix in _SLOT_PREFIX.values()}

    def assign(eid: str, kind: str):
        prefix = _SLOT_PREFIX[kind]
        counters[prefix] += 1
        slot_of[eid] = f"{prefix}{counters[prefix]}"

    for kind, ids in by_kind.items():
        for eid in ids:
            assign(eid, kind)
    for i, eid in enumerate(singles):
        assign(eid, "inverter" if i < inverter_used else "summer")
    for eid in multis:
        assign(eid, "summer")
    pos = neg = 0
    for eid in refs:
        if netlist.elements[eid].params["constant"] > 0:
            pos += 1
            slot_of[eid] = f"REFP{pos}"
        else:
            neg += 1
            slot_of[eid] = f"REFN{neg}"

    patches = []
    for e in netlist.elements.values():
        for k, net_id in enumerate(e.inputs, start=1):
            src = slot_of[netlist.nets[net_id].driver]
            patches.append((src, slot_of[e.id], k))
    patches.sort(key=lambda p: (_slot_key(p[1]), p[2]))
    settings = sorted(
        ((slot_of[e.id], e.params["alpha"]) for e in netlist.elements.values()
         if e.kind is Kind.COEFFICIENT),
        key=lambda s: _slot_key(s[0]),
    )
    return PatchAssignment(spec.name, slot_of, patches, settings)


def _slot_key(slot: str):
    head = slot.rstrip("0123456789")
    return (head, int(slot[len(head):] or 0))


def patch_instructions(assignment: PatchAssignment) -> str:
    """Human-readable patch list, stable and ordered by destination slot."""
    lines = [f"# patch list for machine {assignment.machine}"]
    for src, dst, k in assignment.patches:
        lines.append(f"connect {src}.out -> {dst}.in{k}")
    for slot, alpha in assignment.settings:
        lines.append(f"set {slot} = {alpha!r}")
    return "\n".join(lines) + "\n"


def apply_assignment(netlist: Netlist, assignment: PatchAssignment) -> Netlist:
    """Rename elements and nets to their physical slots.

    The renamed netlist preserves element order, so simulating it yields
    a trace identical to the original; used to check assignment
    soundness.
    """
    slot = assignment.slot_of
    elements = []
    for e in netlist.elements.values():
        elements.append(Element(slot[e.id], e.kind, dict(e.params),
                                tuple(slot[netlist.nets[n].driver] for n in e.inputs)))
    nets = {}
    for nid, net in netlist.nets.items():
        nets[slot[net.driver]] = Net(slot[net.driver], net.name)
    return Netlist(elements, nets, netlist.outputs)
