import os
from pathlib import Path

import pytest

from apc import compiler, dsl

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


def resolve_src(src: str) -> dsl.OdeSystem:
    program, diags = dsl.parse(src)
    assert program is not None, diags
    system, diags = dsl.resolve(program)
    assert system is not None, diags
    return system


@pytest.fixture
def sine():
    return build(SINE_SRC)


@pytest.fixture
def fig2():
    return build(FIG2_SRC)
