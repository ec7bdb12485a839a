"""Compiler and simulator for electronic analog computers.

Translate small ODE programs into directed graphs of analog computing
elements, scale them into the machine interval [-1, 1], simulate them
under the IC/OP/HALT mode model, and place them onto fixed machine
inventories.
"""

from .compiler import (
    CompileError,
    CompileOptions,
    CompileResult,
    ScalingViolationError,
    UnscaledCoefficientError,
    compile_system,
)
from .dsl import Diagnostic, OdeSystem, parse, pretty, resolve
from .fabric import (
    THAT,
    MachineSpec,
    PatchAssignment,
    ResourceError,
    apply_assignment,
    load_machine_spec,
    map_netlist,
    patch_instructions,
)
from .machine import (
    Element,
    Kind,
    Net,
    Netlist,
    StructuralError,
    algebraic_loops,
    element_output,
    evaluation_order,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    save_netlist,
    validate,
)
from .scaling import (
    BoundsEstimate,
    Mapping,
    ScaleMap,
    ScalingError,
    SignalBinding,
    amplitude_scale,
    autoscale,
    descale_trace,
    estimate_bounds,
    reference_solution,
    time_scale,
)
from .simulator import (
    ConstructionError,
    MachineInstance,
    Mode,
    ModeError,
    OverloadError,
    SimConfig,
    Trace,
    new_instance,
)

__version__ = "0.1.0"
