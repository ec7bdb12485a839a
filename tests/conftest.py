import json
import math
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


@st.composite
def first_order_programs(draw):
    """Source text of a program of order 1 at most that the modes cannot
    bound: one to three states, each damped, with constant addends (always
    one in x0's equation), couplings, products and lookups over a bounded
    argument, and up to two order-0 variables that read them."""
    xs = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    ws = [f"w{i}" for i in range(draw(st.integers(0, 2)))]
    lines = ["system box", "table f = (-1, -0.5) (0, 0.25) (1, 1)"]
    lines += [f"var {x} order 1" for x in xs] + [f"var {w} order 0" for w in ws]
    for i, w in enumerate(ws):
        a, b = draw(st.sampled_from(xs + ws[:i])), draw(st.sampled_from(xs))
        lines.append(f"eq {w} = " + draw(st.sampled_from(
            [f"0.5*{a}", f"0.5*{a} - 0.25*{b}", f"{a}*{b}", f"lut(f, {b})", f"0.1 + 0.5*{a}"])))
    for x in xs:
        terms = [f"-{draw(st.sampled_from(['0.5', '1', '2']))}*{x}"]
        if x == "x0":
            terms.append(draw(st.sampled_from(["0.05", "-0.1"])))
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.sampled_from(xs + ws)), draw(st.sampled_from(xs))
            c = draw(st.sampled_from(["0.05", "-0.1", "0.2", "-0.25"]))
            terms.append(draw(st.sampled_from(
                [c, f"{c}*{a}", f"{c}*{a}*{b}", f"{c}*lut(f, {b})", f"lut(f, 0.5*{a})"])))
        lines.append(f"eq {x}' = " + " + ".join(terms))
        lines.append(f"init {x} = {draw(st.sampled_from(['0', '0.25', '-0.5']))}")
    lines.append(f"time {draw(st.sampled_from(['1', '10']))}")
    return "\n".join(lines) + "\n"


def heat_src(n: int, end: float = 0.5) -> str:
    """The heat chain u_i' = 100 (u_(i-1) - 2 u_i + u_(i+1)) from half a sine
    wave of height 0.5, with u_(-1) held at ``end`` and u_n at 0: affine, so
    no program the modes take."""
    lines = ["system heat", f"param c = {end!r}"] + [f"var u{i} order 1" for i in range(n)]
    for i in range(n):
        right = f" + u{i + 1}" if i < n - 1 else ""
        lines.append(f"eq u{i}' = 100*({f'u{i - 1}' if i else 'c'} - 2*u{i}{right})")
        lines.append(f"init u{i} = {0.5 * math.sin(math.pi * (i + 1) / (n + 1))!r}")
    return "\n".join(lines + ["time 1"]) + "\n"


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


#: The loader's one line for a netlist file with the ``nets`` table of
#: earlier versions.
NETS_KEY = "unknown key(s) ['nets'] in netlist"


def with_old_net_table(doc: dict, edit=lambda nets: None) -> dict:
    """The netlist document ``doc`` with the ``nets`` table earlier versions
    wrote beside its elements, one ``{id, driver, name}`` per element, as
    ``edit`` leaves that list."""
    nets = [{"id": e["id"], "driver": e["id"], "name": e.get("name")} for e in doc["elements"]]
    edit(nets)
    doc["nets"] = nets
    return doc


@pytest.fixture
def sine():
    return build(SINE_SRC)


@pytest.fixture
def fig2():
    return build(FIG2_SRC)
