import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm

from apc import compiler, linear, scaling
from apc.dsl import signal_name
from apc.linear import linear_form, step_bound
from apc.machine import Netlist, integrator, multiplier
from apc.simulator import Mode, SimConfig, new_instance
from conftest import (DECAY_LUT_SRC, FIG2_SRC, SINE5_SRC, SINE_SRC, UNSTABLE_SRC, VCO_SRC,
                      build, compilable_programs, heat_src, resolve_src)

#: One step of a 12-bit ADC, the quantum ``step_bound`` keeps RK4 within an eighth of.
QUANTUM = 2.0 ** -11


def compiled(src: str, auto: bool, k0: float = 1.0):
    """(system, compile result) of ``src``, autoscaled or literal, at ``k0``."""
    system = resolve_src(src)
    scale = scaling.autoscale(system, k0) if auto else compiler.ScaleMap.identity(k0)
    return system, compiler.compile_system(system, compiler.CompileOptions(scale=scale))


def source_matrix(system, result, ids: list) -> list:
    """lambda S A S^-1 over the integrators ``ids``: the source's state
    matrix A (``scaling._state_matrix``) carried through the bindings,
    S = diag(parity / amplitude_scale), into machine units and time."""
    states, a = scaling._state_matrix(system)
    signals = [result.mapping.signals[signal_name(*s)] for s in states]
    where = {b.net: i for i, b in enumerate(signals)}
    lam, rows = result.mapping.lam, [where[eid] for eid in ids]
    return [[lam * (signals[i].parity / signals[i].scale) * a[i][j]
             * (signals[j].scale / signals[j].parity) for j in rows] for i in rows]


@pytest.mark.parametrize("src, auto, k0", [
    (SINE_SRC, True, 1.0), (SINE_SRC, False, 1.0), (VCO_SRC, True, 1.0), (VCO_SRC, False, 1.0),
    (SINE5_SRC, True, 1.0), (VCO_SRC, True, 1000.0), (VCO_SRC, False, 1000.0)])
def test_the_samples_carry_their_state_matrix_exactly(src, auto, k0):
    """bigsine compiles only autoscaled: its y starts at 5."""
    system, result = compiled(src, auto, k0)
    ids, m, b = linear_form(result.netlist)
    assert m == source_matrix(system, result, ids)
    assert b == [0.0] * len(ids)


def test_forms_reach_no_multiplier_and_no_table():
    """decay's integrator reads a table, so it has no form; xabc's
    multiplier feeds no integrator, so it has one with no state, though
    its order-0 variables give the source no state matrix."""
    decay = build(DECAY_LUT_SRC)[1].netlist
    assert linear_form(decay) is None
    assert step_bound(decay, 5.0, QUANTUM) is None
    system, result = build(FIG2_SRC)
    assert scaling._state_matrix(system) is None
    assert linear_form(result.netlist) == ([], [], [])
    assert step_bound(result.netlist, 1.0, QUANTUM) == (math.inf, 1)
    squared = Netlist([multiplier("m", "x", "x"), integrator("x", ["m"], 0.5)])
    assert linear_form(squared) is None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(compilable_programs())
def test_generated_programs_carry_their_state_matrix(src):
    """Under both scalings, wherever the source is homogeneous linear
    (about one program in twelve)."""
    system = resolve_src(src)
    if scaling._state_matrix(system) is None:
        return
    for auto in (False, True):
        _, result = compiled(src, auto)
        ids, m, b = linear_form(result.netlist)
        want = source_matrix(system, result, ids)
        scale = max((abs(x) for row in want for x in row), default=0.0)
        assert all(abs(x - y) <= 1e-12 * scale for r, w in zip(m, want) for x, y in zip(r, w))
        assert not any(b)


@pytest.mark.parametrize("n, rho, steps", [(16, 0.9, 3448), (64, 0.5, None), (256, 0.5, None)])
def test_heat_chains_cap_by_their_row_sums(n, rho, steps):
    """The Gershgorin bound is at least the spectral radius, about 0.79,
    0.40 and 0.40; past ``MODAL_MAX_STATES`` states there is no step count."""
    _, result = compiled(heat_src(n), True)
    ids, m, b = linear_form(result.netlist)
    assert len(ids) == n and any(b)
    assert max(sum(map(abs, row)) for row in m) == pytest.approx(rho, rel=1e-12)
    assert max(abs(np.linalg.eigvals(np.array(m)))) <= rho
    cap, found = step_bound(result.netlist, result.mapping.horizon_machine, QUANTUM)
    assert cap == linear.RK4_RADIUS / max(sum(map(abs, row)) for row in m)
    assert found == steps


def test_rk4_keeps_the_left_half_disc_of_its_radius_stable():
    """|R(z)| <= 1 on the closed left half-disc |z| <= ``RK4_RADIUS`` (at
    most on its boundary, the arc and the imaginary axis), not at 2.7."""

    def r(z):
        return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

    arc = np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, 10_001))
    axis = 1j * np.linspace(-1.0, 1.0, 10_001)
    assert np.abs(r(linear.RK4_RADIUS * np.concatenate([arc, axis]))).max() <= 1.0
    assert np.abs(r(2.7 * arc)).max() > 1.0


def test_a_run_at_the_cap_stays_on_the_machine():
    _, result = compiled(heat_src(16), True)
    cap, _ = step_bound(result.netlist, result.mapping.horizon_machine, QUANTUM)
    trace = new_instance(result.netlist, SimConfig(dt=cap)).run(result.mapping.horizon_machine)
    assert trace.overloads == []


def test_rk4_runs_the_closed_form_of_its_step():
    """RK4's step on x' = M x is P = sum_(j <= 4) (hM)^j / j!, so N steps
    from x0 end at P^N x0."""
    _, result = compiled(VCO_SRC, False)
    ids, m, _ = linear_form(result.netlist)
    h, steps = 0.05, 200
    hm = h * np.array(m)
    p = sum(np.linalg.matrix_power(hm, j) / math.factorial(j) for j in range(5))
    x0 = [result.netlist.elements[eid].params["ic"] for eid in ids]
    machine = new_instance(result.netlist, SimConfig(dt=h))
    machine.run(h * steps)
    want = np.linalg.matrix_power(p, steps) @ x0
    assert np.abs(np.array([machine.states[eid] for eid in ids]) - want).max() <= 1e-13


@pytest.mark.parametrize("src, steps", [(SINE_SRC, 29), (SINE5_SRC, 52), (VCO_SRC, 271),
                                        (UNSTABLE_SRC, 17), (heat_src(16), 3448)],
                         ids=["sine", "bigsine", "vco", "runaway", "heat-16"])
def test_each_step_stays_within_an_eighth_of_the_quantum(src, steps):
    """At ``step_bound``'s count every step lies within QUANTUM / 8 of
    expm(M t) x0, on the homogeneous samples (the defaults take 62,832,
    100,000 and 500,000 steps), on the growing runaway and on the affine
    heat-16."""
    _, result = compiled(src, True)
    ids, m, b = linear_form(result.netlist)
    horizon = result.mapping.horizon_machine
    assert step_bound(result.netlist, horizon, QUANTUM)[1] == steps
    h = horizon / steps
    n = len(ids)
    augmented = np.zeros((n + 1, n + 1))
    augmented[:n, :n], augmented[:n, n] = m, b
    x0 = [*(result.netlist.elements[eid].params["ic"] for eid in ids), 1.0]
    machine = new_instance(result.netlist)
    machine.set_mode(Mode.OP)
    worst = 0.0
    for i in range(1, steps + 1):
        machine.step(h)
        exact = expm(augmented * (i * h)) @ x0
        worst = max(worst, max(abs(machine.states[eid] - x) for eid, x in zip(ids, exact)))
    assert worst <= QUANTUM / 8
