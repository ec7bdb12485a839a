"""Compiler and simulator for electronic analog computers.

Translate small ODE programs into directed graphs of analog computing
elements, scale them into the machine interval [-1, 1], simulate them
under the IC/OP/HALT mode model, and place them onto fixed machine
inventories.

Submodules load on first use: ``import apc`` loads none of them, and a
name exported here (``apc.compile_system``, ``from apc import Mapping``)
or a submodule (``apc.simulator``) imports its own module, and what that
module needs, the first time it is looked up (PEP 562). A program pays
only for the layers it touches.
"""

from importlib import import_module as _import_module

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "compiler": ("CompileError", "CompileOptions", "CompileResult", "ScaleMap",
                 "ScalingViolationError", "UnscaledCoefficientError", "compile_system"),
    "dsl": ("Diagnostic", "OdeSystem", "parse", "pretty", "resolve"),
    "fabric": ("THAT", "MachineSpec", "PatchAssignment", "ResourceError", "apply_assignment",
               "load_machine_spec", "map_netlist", "patch_instructions"),
    "machine": ("ConstructionError", "Element", "Kind", "Mapping", "Net", "Netlist",
                "ScalingError", "SignalBinding", "StructuralError", "element_output",
                "evaluation_order", "load_netlist", "netlist_from_dict", "netlist_to_dict",
                "save_netlist", "validate"),
    "scaling": ("BoundsEstimate", "amplitude_scale", "autoscale", "estimate_bounds",
                "reference_solution", "time_scale"),
    "simulator": ("MachineInstance", "Mode", "ModeError", "OverloadError",
                  "SimConfig", "Trace", "descale_trace", "new_instance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
