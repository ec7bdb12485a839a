import json
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from apc import compiler, dsl, machine, scaling

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment of a new interpreter that imports apc from src/."""
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


SINE_SRC = """\
system sine
param omega = 1
param phi = 0.5235987755982988
var y order 2
eq y'' = -omega*omega*y
init y = sin(phi)
init y' = cos(phi)
time 6.283185307179586
output y, y'
"""

SINE5_SRC = """\
system bigsine
var y order 2
eq y'' = -y
init y = 5
init y' = 0
time 10
output y, y'
"""

UNSTABLE_SRC = """\
system runaway
var y order 2
eq y'' = y
init y = 0.5
init y' = 0
time 4
output y
"""

FIG2_SRC = """\
system xabc
var a order 0
var b order 0
var c order 0
var x order 0
eq a = 0.5
eq b = 0.25
eq c = 0.25
eq x = a*(b+c)
time 1
output x
"""

VCO_SRC = """\
system vco
param k = 0.5
var y order 2
eq y'' = -k*y
init y = 0.5
init y' = 0
time 50
output y
"""

DECAY_LUT_SRC = """\
system decay
var z order 1
eq z' = -lut(f, z)
init z = 0.9
table f = (-1, -1) (0, 0) (1, 1)
time 5
output z
"""


def build(src: str, **opts) -> tuple[dsl.OdeSystem, compiler.CompileResult]:
    program, diags = dsl.parse(src)
    assert program is not None, diags
    system, diags = dsl.resolve(program)
    assert system is not None, diags
    return system, compiler.compile_system(system, compiler.CompileOptions(**opts))


#: Every constant and the param are at most 0.15 and an equation has at
#: most six leaves, so each sum of constants stays inside [-1, 1] and a
#: generated program compiles unscaled.
_CONSTANTS = ("0.05", "0.1", "0.15")
_MAX_LEAVES = 6


@st.composite
def compilable_programs(draw):
    """Source text of a program that compiles with ``ScaleMap.identity()``.

    One to three variables of order 0 to 2. Right-hand sides combine
    ``+ - *``, unary minus, parentheses, ``lut`` and the param ``k`` over
    every signal below each variable's order; an order-0 variable reads
    only the order-0 variables declared before it, so no algebraic loop
    arises. Outputs are the default or every signal, highest derivatives
    included.
    """
    names = ["x", "y", "z"][:draw(st.integers(1, 3))]
    orders = {v: draw(st.integers(0, 2)) for v in names}
    lines = ["system gen", "param k = 0.15", "table f = (-1, -1) (0, 0.25) (1, 1)"]
    lines += [f"var {v} order {n}" for v, n in orders.items()]

    def expr(refs, budget, depth):
        if depth == 0 or budget[0] == 1 or draw(st.booleans()):
            budget[0] -= 1
            return draw(st.sampled_from([*_CONSTANTS, "k", *refs]))
        shape = draw(st.sampled_from(["+", "-", "*", "neg", "lut"]))
        if shape == "neg":
            return f"-{expr(refs, budget, depth - 1)}"
        if shape == "lut":
            return f"lut(f, {expr(refs, budget, depth - 1)})"
        left = expr(refs, budget, depth - 1)
        if budget[0] == 0:
            return left
        return f"({left} {shape} {expr(refs, budget, depth - 1)})"

    for i, (v, n) in enumerate(orders.items()):
        refs = [dsl.signal_name(u, k) for u, m in orders.items() for k in range(m)]
        refs += [u for u in (names if n else names[:i]) if orders[u] == 0]
        lines.append(f"eq {dsl.signal_name(v, n)} = {expr(refs, [_MAX_LEAVES], 4)}")
        lines += [f"init {dsl.signal_name(v, k)} = {draw(st.sampled_from(['0', '0.25', '-0.5']))}"
                  for k in range(n)]
    lines.append("time 1")
    if draw(st.booleans()):
        lines.append("output " + ", ".join(dsl.signal_name(v, k) for v, n in orders.items()
                                           for k in range(n + 1)))
    return "\n".join(lines) + "\n"


def resolve_src(src: str) -> dsl.OdeSystem:
    program, diags = dsl.parse(src)
    assert program is not None, diags
    system, diags = dsl.resolve(program)
    assert system is not None, diags
    return system


def autoscaled_json(src: str) -> str:
    """The netlist and sidecar JSON that parse, resolve, autoscale and
    compile make of ``src``, or the scaling error's message."""
    system = resolve_src(src)
    try:
        scale = scaling.autoscale(system)
    except machine.ScalingError as exc:
        return f"ScalingError: {exc}"
    result = compiler.compile_system(system, compiler.CompileOptions(scale=scale))
    return json.dumps([machine.netlist_to_dict(result.netlist), result.mapping.to_dict()])


@pytest.fixture
def sine():
    return build(SINE_SRC)


@pytest.fixture
def fig2():
    return build(FIG2_SRC)
