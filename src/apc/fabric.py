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
from .machine import Element, Kind, Net, Netlist, evaluation_order, inventory_kind, json_object
from .record import Frozen, Record

_INVENTORY_KINDS = ("integrator", "summer", "inverter", "multiplier",
                    "coefficient", "function_generator")

#: Slot kinds in the order slots are numbered, each with its slot name; a
#: deficit is listed in this order too (inverters never fall short: the
#: single-input summers past their supply take summer slots).
_SLOT_PREFIX = {
    "integrator": "INT",
    "multiplier": "MUL",
    "coefficient": "POT",
    "function_generator": "FGEN",
    "inverter": "INV",
    "summer": "SUM",
}


class ResourceError(ValueError):
    """The netlist needs more elements than the machine offers."""

    def __init__(self, machine: str, deficits: dict):
        self.machine = machine
        self.deficits = dict(deficits)
        short = ", ".join(f"{k}: {v}" for k, v in self.deficits.items())
        super().__init__(f"netlist does not fit machine {machine!r}; missing {short}")

    def __reduce__(self):  # pickle rebuilds through __init__
        return type(self), (self.machine, self.deficits)


class MachineSpec(Frozen):
    __slots__ = ("name", "inventory", "crossbar")

    def __init__(self, name: str, inventory: dict, crossbar: str = "full"):
        unknown = set(inventory) - set(_INVENTORY_KINDS)
        if unknown:
            raise ValueError(f"unknown inventory kind(s) {sorted(unknown)}")
        for kind, v in inventory.items():
            if not (math.isfinite(v) and v >= 0 and v == int(v)):
                raise ValueError(f"inventory count of {kind} must be a non-negative integer, got {v!r}")
        if crossbar != "full":
            raise ValueError("only full crossbars are modeled")
        super().__init__(name, inventory, crossbar)

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


class PatchAssignment(Record):
    """Element-to-slot mapping plus the ordered patch connection list."""

    __slots__ = ("machine", "slot_of", "patches", "settings")

    def __init__(self, machine: str, slot_of: dict, patches: list | None = None,
                 settings: list | None = None):
        super().__init__(machine, slot_of,
                         [] if patches is None else patches,  # (src_slot, dst_slot, input index)
                         [] if settings is None else settings)  # (slot, alpha)


def map_netlist(netlist: Netlist, spec: MachineSpec) -> PatchAssignment:
    """Place every element on a physical slot, or raise ResourceError.

    With a full crossbar, mapping succeeds exactly when per-kind demand
    fits supply after placing single-input summers into inverter slots
    first. On failure the error lists the per-kind deficit, which equals
    demand minus supply under that optimal substitution. The netlist is
    checked first by ``machine.evaluation_order``: ConstructionError if it
    fails validation, AlgebraicLoopError naming one loop if it has any.
    """
    evaluation_order(netlist)
    ids: dict[str, list] = {kind: [] for kind in (*_SLOT_PREFIX, "reference")}
    for e in netlist.elements.values():
        ids[inventory_kind(e)].append(e.id)
    refs, supply = ids.pop("reference"), spec.count("inverter")
    ids["summer"][:0] = ids["inverter"][supply:]  # single-input summers past the inverters
    del ids["inverter"][supply:]
    deficits = {kind: len(v) - spec.count(kind) for kind, v in ids.items()
                if len(v) > spec.count(kind)}
    if deficits:
        raise ResourceError(spec.name, deficits)
    slot_of = {eid: f"{_SLOT_PREFIX[kind]}{i}"
               for kind, v in ids.items() for i, eid in enumerate(v, start=1)}
    taps = {"REFP": 0, "REFN": 0}
    for eid in refs:
        rail = "REFP" if netlist.elements[eid].params["constant"] > 0 else "REFN"
        taps[rail] += 1
        slot_of[eid] = f"{rail}{taps[rail]}"

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
