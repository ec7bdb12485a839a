import bisect
import csv
import functools
import io
import math
import operator
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apc.machine import (
    Kind,
    Netlist,
    StructuralError,
    coefficient,
    element_output,
    evaluation_order,
    function_generator,
    integrator,
    reference,
    summer,
)
from apc.simulator import (
    LEGAL_TRANSITIONS,
    ConstructionError,
    MachineInstance,
    Mode,
    ModeError,
    OverloadEvent,
    OverloadError,
    SimConfig,
    SimulationWarning,
    Trace,
    descale_trace,
    new_instance,
)
from conftest import SINE_SRC, UNSTABLE_SRC, build, src_env
from test_compiler import simulable_odes
from test_machine import dag_netlists

#: Every step adds 0.25 * dt, less than half of a 1e-4 grid step at dt = 1e-4.
STALL_SRC = "system stall\nvar z order 1\neq z' = -0.25\ninit z = 0\ntime 1\noutput z\n"


def ramp_netlist(k0=1.0, ic=0.0):
    """Reference +1 into a single integrator: output reaches -1 at tau=1/k0."""
    elems = [reference("one", 1.0), integrator("i", ["one"], ic=ic, k0=k0)]
    return Netlist(elems, names={"out": "i"})


class TestIntegratorLaw:
    def test_unit_rate(self):
        inst = new_instance(ramp_netlist(), SimConfig(dt=1e-4))
        trace = inst.run(1.0)
        assert abs(trace.series["out"][-1] - (-1.0)) < 1e-6

    def test_fast_rate(self):
        inst = new_instance(ramp_netlist(k0=1000.0), SimConfig(dt=1e-4))
        trace = inst.run(1e-3)
        assert abs(trace.series["out"][-1] - (-1.0)) < 1e-6


class TestConstruction:
    def test_sine_initial_net_values(self, sine):
        _, result = sine
        inst = new_instance(result.netlist)
        assert inst.mode is Mode.IC
        assert inst.tau == 0.0
        assert inst.value("y") == pytest.approx(0.5)

    def test_empty_output_schema(self):
        n = Netlist([reference("r", 1.0)])
        inst = new_instance(n)
        trace = inst.run(0.0)
        assert trace.series == {} and trace.tau == [0.0]

    def test_algebraic_cycle_rejected(self):
        n = Netlist([summer("s1", ["s2"]), summer("s2", ["s1"])])
        with pytest.raises(ConstructionError):
            new_instance(n)

    def test_invalid_netlist_rejected(self):
        n = Netlist([summer("s1", ["ghost"])])
        with pytest.raises(ConstructionError):
            new_instance(n)

    @pytest.mark.parametrize("resolution, net, bound", [(1e-310, "i", 1.0), (1e-308, "s", 2.0)])
    def test_grid_that_cannot_quantize_a_net_rejected(self, resolution, net, bound):
        # bound / resolution overflows, so rnd(v / resolution) could too.
        elems = [integrator("i", ["s"], ic=0.5), integrator("j", ["i"]), summer("s", ["i", "j"])]
        n = Netlist(elems, names={"s": "s"})
        message = (f"resolution {resolution!r} cannot quantize net {net!r}: "
                   f"its bound {bound!r} over the resolution overflows")
        with pytest.raises(ConstructionError, match=re.escape(message)):
            new_instance(n, SimConfig(resolution=resolution))

    def test_finest_grid_that_quantizes_every_net_runs(self, sine):
        _, result = sine
        trace = new_instance(result.netlist, SimConfig(resolution=1e-300)).run(0.01)
        assert trace.overloads == [] and trace.tau[-1] == 0.01


class TestModeMachine:
    def test_freeze_and_resume_are_continuous(self, sine):
        _, result = sine
        cfg = SimConfig(dt=1e-3)
        a = new_instance(result.netlist, cfg)
        first = a.run(1.0)
        assert a.mode is Mode.HALT
        frozen = a.value("y")
        a.set_mode(Mode.OP)
        second = a.run(2.0)
        assert second.series["y"][0] == frozen  # resume equals freeze value

        b = new_instance(result.netlist, cfg)
        whole = b.run(2.0)
        assert whole.series["y"][-1] == second.series["y"][-1]  # bit-identical resume

    def test_halt_to_ic_resets(self, sine):
        _, result = sine
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        inst.run(0.5)
        inst.set_mode(Mode.IC)
        assert inst.tau == 0.0
        assert inst.value("y") == pytest.approx(0.5)

    def test_ic_clears_overload_log(self):
        _, result = build(UNSTABLE_SRC)
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        assert inst.run(3.0).overloads, "expected a runaway first run"
        inst.set_mode(Mode.IC)
        assert inst.overloads == []
        second = inst.run(0.5)  # 0.5 * cosh(0.5) stays inside [-1, 1]
        assert second.overloads == []
        assert second == new_instance(result.netlist, SimConfig(dt=1e-3)).run(0.5)

    def test_pot_updates_in_ic_log_the_initial_overload_once(self):
        # s = -(1 + 0.9) leaves [-1, 1] already in the initial state.
        n = Netlist([reference("r", 1.0), coefficient("k", "r", 0.9),
                     summer("s", ["r", "k"])], names={"s": "s"})
        cfg = SimConfig(dt=1e-3)
        inst = new_instance(n, cfg)
        assert len(inst.overloads) == 1
        inst.set_coefficient("k", 0.8)
        inst.set_coefficient("k", 0.9)
        assert len(inst.overloads) == 1
        first = inst.run(2e-3)
        assert len(first.overloads) == 3  # the initial state, then once per step
        inst.set_mode(Mode.IC)
        inst.set_coefficient("k", 0.9)
        fresh = new_instance(n, cfg)
        fresh.set_coefficient("k", 0.9)
        assert inst.run(2e-3) == first == fresh.run(2e-3)

    def test_op_to_ic_rejected(self, sine):
        _, result = sine
        inst = new_instance(result.netlist)
        inst.set_mode(Mode.OP)
        with pytest.raises(ModeError):
            inst.set_mode(Mode.IC)

    def test_ic_to_halt_rejected(self, sine):
        _, result = sine
        inst = new_instance(result.netlist)
        with pytest.raises(ModeError):
            inst.set_mode(Mode.HALT)

    def test_run_from_halt_rejected(self, sine):
        inst = new_instance(sine[1].netlist, SimConfig(dt=1e-3))
        inst.run(0.01)
        with pytest.raises(ModeError, match="run requires IC or OP mode"):
            inst.run(0.02)

    def test_step_requires_op(self, sine):
        _, result = sine
        inst = new_instance(result.netlist)
        with pytest.raises(ModeError):
            inst.step(1e-3)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([Mode.IC, Mode.OP, Mode.HALT]), max_size=12))
    def test_exactly_the_transition_table(self, sequence):
        n = ramp_netlist()
        inst = new_instance(n)
        current = Mode.IC
        for target in sequence:
            legal = (current, target) in LEGAL_TRANSITIONS
            if legal:
                inst.set_mode(target)
                current = target
            else:
                with pytest.raises(ModeError):
                    inst.set_mode(target)
            assert inst.mode is current


class TestStepping:
    def test_zero_netlist_step_advances_time(self):
        n = Netlist([reference("r", 1.0)])
        inst = new_instance(n)
        inst.set_mode(Mode.OP)
        inst.step(0.25)
        assert inst.tau == 0.25

    @pytest.mark.parametrize("dt", [0.0, math.inf, math.nan])
    def test_step_needs_a_positive_finite_dt(self, sine, dt):
        inst = new_instance(sine[1].netlist)
        inst.set_mode(Mode.OP)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            inst.step(dt)
        assert inst.tau == 0.0

    def test_run_to_zero_gives_single_sample(self, sine):
        _, result = sine
        trace = new_instance(result.netlist).run(0.0)
        assert len(trace.tau) == 1

    def test_run_ends_on_its_horizon_whatever_the_step(self, sine):
        _, result = sine
        finals = []
        for dt in (1e-4, 1e-3):
            inst = new_instance(result.netlist, SimConfig(dt=dt, sample_every=1000))
            trace = inst.run(2 * math.pi)
            assert trace.tau[-1] == inst.tau
            assert abs(inst.tau - 2 * math.pi) <= 1e-15 * 2 * math.pi
            finals.append(trace.final())
        for name, value in finals[0].items():
            assert abs(value - finals[1][name]) <= 1e-9, name

    @pytest.mark.parametrize("tau_end", [math.inf, math.nan])
    def test_non_finite_horizon_raises_value_error(self, sine, tau_end):
        inst = new_instance(sine[1].netlist)
        with pytest.raises(ValueError, match="a run needs a finite span"):
            inst.run(tau_end)
        assert (inst.mode, inst.tau) == (Mode.IC, 0.0)

    def test_endless_run_raises_value_error_at_once(self):
        """A run of 2**53 steps or more is refused before it starts. In a
        separate process with a timeout, so a run that never returns fails
        this test instead of stalling the suite."""
        script = ("from apc.machine import Netlist, integrator, reference\n"
                  "from apc.simulator import new_instance\n"
                  "n = Netlist([reference('one', 1.0), integrator('i', ['one'])])\n"
                  "try:\n"
                  "    new_instance(n).run(1e300)\n"
                  "except ValueError as exc:\n"
                  "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (
            0, "the run needs 1e+304 steps of 0.0001, fewer than 2**53 are allowed\n")

    def test_sine_quarter_turn(self, sine):
        _, result = sine
        inst = new_instance(result.netlist, SimConfig(dt=1e-4))
        trace = inst.run(math.pi)
        # the last sample lands within one step of pi
        t_last = trace.tau[-1]
        assert abs(trace.series["y"][-1] - math.sin(t_last + math.pi / 6)) < 1e-4

    def test_sine_has_no_overloads(self, sine):
        _, result = sine
        trace = new_instance(result.netlist, SimConfig(dt=1e-3)).run(2 * math.pi)
        assert trace.overloads == []
        assert max(abs(v) for v in trace.series["y"]) <= 1.0


class TestOverloads:
    def test_unstable_system_logs_near_saturation(self):
        _, result = build(UNSTABLE_SRC)
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        trace = inst.run(2.0)
        assert trace.overloads, "expected overload events"
        first = trace.overloads[0]
        # 0.5 * cosh(tau) crosses 1 at arccosh(2)
        assert abs(first.time - math.acosh(2.0)) < 5e-3
        assert first.element == "int2"

    def test_strict_mode_aborts(self):
        _, result = build(UNSTABLE_SRC)
        inst = new_instance(result.netlist, SimConfig(dt=1e-3, strict_overload=True))
        with pytest.raises(OverloadError) as err:
            inst.run(2.0)
        assert err.value.element == "int2"

    def test_strict_abort_leaves_the_machine_at_the_overload(self):
        _, result = build(UNSTABLE_SRC)
        dt = 1e-3
        inst = new_instance(result.netlist, SimConfig(dt=dt, strict_overload=True))
        with pytest.raises(OverloadError) as err:
            inst.run(2.0)
        ev = err.value
        assert inst.tau == ev.time
        assert inst.overloads[-1] == OverloadEvent(ev.time, ev.element, ev.magnitude)
        assert inst.mode is Mode.OP
        # The overloading state update is not applied: the states are
        # those of the step before, which logged no overload.
        before = new_instance(result.netlist, SimConfig(dt=dt))
        before.set_mode(Mode.OP)
        for _ in range(round(ev.time / dt) - 1):
            before.step()
        assert before.overloads == [] and inst.states == before.states
        assert inst.value("y") == before.value("y")

    def test_strict_abort_shows_nets_beyond_the_rails_on_them(self):
        # s = -(x + y) reads -1.8 from the start: step 0 logs it, step 1
        # aborts on it, and the machine then shows s on its rail, not
        # logged a second time.
        elems = [reference("r", 1.0), coefficient("zero", "r", 0.0),
                 integrator("x", ["zero"], ic=0.9), integrator("y", ["zero"], ic=0.9),
                 summer("s", ["x", "y"])]
        netlist = Netlist(elems, names={"s": "s"})
        inst = new_instance(netlist, SimConfig(dt=0.1, strict_overload=True))
        with pytest.raises(OverloadError) as err:
            inst.run(1.0)
        assert (err.value.element, err.value.time) == ("s", 0.1)
        assert [(ev.time, ev.element) for ev in inst.overloads] == [(0.0, "s"), (0.1, "s")]
        assert inst.value("s") == -1.0

    def test_values_stay_clamped(self):
        _, result = build(UNSTABLE_SRC)
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        trace = inst.run(3.0)
        assert max(abs(v) for v in trace.series["y"]) <= 1.0

    def test_overload_times_lie_on_the_trace_axis(self):
        _, result = build(UNSTABLE_SRC)
        dt = 1e-4
        trace = new_instance(result.netlist, SimConfig(dt=dt)).run(3.0)
        assert len(trace.overloads) == 32322
        assert all(ev.time == round(ev.time / dt) * dt for ev in trace.overloads)
        assert {ev.time for ev in trace.overloads} <= set(trace.tau)

    def test_boundary_values_are_legal(self):
        elems = [reference("one", 1.0), reference("minus", -1.0), summer("neg", ["one"]),
                 summer("pos", ["minus"]), coefficient("zero", "one", 0.0),
                 integrator("hold", ["zero"], ic=1.0), integrator("holdn", ["zero"], ic=-1.0)]
        n = Netlist(elems, names={e.id: e.id for e in elems})
        trace = new_instance(n, SimConfig(dt=1e-3)).run(0.01)
        assert trace.overloads == []
        assert trace.final() == {"one": 1.0, "minus": -1.0, "neg": -1.0, "pos": 1.0,
                                 "zero": 0.0, "hold": 1.0, "holdn": -1.0}


class TestQuantization:
    def test_ideal_and_quantized_trace_deviation_bounded(self, sine):
        _, result = sine
        ideal = new_instance(result.netlist, SimConfig(dt=5e-3)).run(2 * math.pi)
        rough = new_instance(result.netlist, SimConfig(dt=5e-3, resolution=1e-4)).run(2 * math.pi)
        dev = max(abs(a - b) for a, b in zip(ideal.series["y"], rough.series["y"]))
        nsteps = len(ideal.tau) - 1
        assert dev <= nsteps * 1e-4  # linear-in-steps envelope
        assert dev < 5e-3  # observed random-walk behavior

    def test_quantized_values_on_grid(self, sine):
        _, result = sine
        eps = 1e-3
        inst = new_instance(result.netlist, SimConfig(dt=1e-3, resolution=eps))
        inst.run(0.1)
        v = inst.value("y")
        assert abs(v / eps - round(v / eps)) < 1e-9

    @pytest.mark.parametrize("dt", [1e-4, 1e-3])
    def test_sub_grid_increments_accumulate(self, dt):
        _, result = build(STALL_SRC)
        trace = new_instance(result.netlist, SimConfig(dt=dt, resolution=1e-4)).run(1.0)
        assert descale_trace(trace, result.mapping).final()["z"] == pytest.approx(-0.25, abs=1e-12)

    def test_quantized_runaway_reaches_the_rail(self):
        _, result = build(UNSTABLE_SRC)
        trace = new_instance(result.netlist, SimConfig(dt=1e-4, resolution=1e-3)).run(4.0)
        assert trace.final()["y"] == 1.0
        assert trace.overloads

    @pytest.mark.parametrize("resolution", [0.0, 1e-3])
    def test_saturated_integrator_state_stays_on_the_rail(self, resolution):
        elems = [reference("one", 1.0), reference("minus", -1.0),
                 integrator("down", ["one"]), integrator("up", ["minus"])]
        n = Netlist(elems, names={"down": "down", "up": "up"})
        inst = new_instance(n, SimConfig(dt=1e-3, resolution=resolution))
        trace = inst.run(1.5)
        assert inst.states == {"down": -1.0, "up": 1.0}
        assert trace.final() == {"down": -1.0, "up": 1.0}
        assert {ev.element for ev in trace.overloads} == {"down", "up"}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(simulable_odes(), st.sampled_from([1e-3, 2.5e-4]))
def test_quantized_run_stays_within_half_a_grid_step_of_ideal(src, dt):
    """Rounding the observed values to the grid does not feed back into the
    states, so the quantized run does not drift from the ideal one at any dt."""
    eps = 1e-4
    _, result = build(src)
    ideal = new_instance(result.netlist, SimConfig(dt=dt)).run(1.0)
    rough = new_instance(result.netlist, SimConfig(dt=dt, resolution=eps)).run(1.0)
    assume(not ideal.overloads)
    for name, values in ideal.series.items():
        assert max(abs(a - b) for a, b in zip(values, rough.series[name])) <= eps / 2 * (1 + 1e-9)


def reference_run(netlist: Netlist, config: SimConfig, tau_end: float):
    """An independent stepper: (tau, series, overloads, states) of a non-strict run.

    It folds ``element_output`` over ``evaluation_order`` for every stage,
    steps RK4 in the operation order of the generated code and applies the
    value model: states clamped at full precision, observed nets quantized
    and clamped, every clamp logged at the step's time ``i * dt``. Its
    grid is its own: ceil(tau_end/dt - 1e-9) steps, of dt if they land
    within 1e-9*dt of tau_end and of tau_end/n otherwise.
    """
    elements = netlist.elements
    integrators = [e for e in elements.values() if e.kind is Kind.INTEGRATOR]
    order = evaluation_order(netlist)
    eps, dt = config.resolution, config.dt
    overloads = []

    def outputs(states):
        values = {e.id: x for e, x in zip(integrators, states)}
        for eid in order:
            e = elements[eid]
            values[eid] = element_output(e.kind, e.params,
                                         [values[n] for n in e.inputs])
        return values

    def derivs(states):
        values = outputs(states)
        return [(-e.params["k0"]) * functools.reduce(
                    operator.add, [values[n] for n in e.inputs])
                for e in integrators]

    def clamp(v, tau, element):
        if not math.isfinite(v):
            raise StructuralError(element)
        if -1.0 <= v <= 1.0:
            return v
        overloads.append(OverloadEvent(tau, element, abs(v)))
        return 1.0 if v > 0 else -1.0

    def observe(states, tau):
        values = outputs(states)
        for eid, e in elements.items():
            if eps > 0.0 or e.kind is not Kind.INTEGRATOR:
                v = values[eid]
                values[eid] = clamp(eps * round(v / eps) if eps > 0.0 else v, tau, eid)
        return [values[netlist.names[name]] for name in netlist.outputs]

    states = [e.params["ic"] for e in integrators]
    taus, rows = [0.0], [observe(states, 0.0)]
    n = max(0, math.ceil(tau_end / dt - 1e-9))
    if n and abs(n * dt - tau_end) > 1e-9 * dt:
        dt = tau_end / n
    for i in range(1, n + 1):
        ka = derivs(states)
        kb = derivs([x + (0.5 * dt) * k for x, k in zip(states, ka)])
        kd = derivs([x + (0.5 * dt) * k for x, k in zip(states, kb)])
        ke = derivs([x + dt * k for x, k in zip(states, kd)])
        states = [clamp(x + (dt / 6.0) * (a + 2.0 * b + 2.0 * d + e), i * dt, el.id)
                  for x, a, b, d, e, el in zip(states, ka, kb, kd, ke, integrators)]
        row = observe(states, i * dt)
        if i % config.sample_every == 0 or i == n:
            taus.append(i * dt)
            rows.append(row)
    series = {name: [row[k] for row in rows] for k, name in enumerate(netlist.outputs)}
    return taus, series, overloads, {e.id: x for e, x in zip(integrators, states)}


def assert_run_equals_reference(netlist, config, tau_end):
    inst = new_instance(netlist, config)
    trace = inst.run(tau_end)
    got = (trace.tau, trace.series, trace.overloads, inst.states)
    assert repr(got) == repr(reference_run(netlist, config, tau_end))


RESOLUTIONS = st.sampled_from([0.0, 1e-3, 0.6])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dag_netlists(), RESOLUTIONS, st.sampled_from([1, 3]))
def test_run_equals_reference_stepper_on_netlists(netlist, resolution, every):
    elements = list(netlist.elements.values())
    named = Netlist(elements, names={e.id: e.id for e in elements})
    config = SimConfig(dt=0.05, resolution=resolution, sample_every=every)
    assert_run_equals_reference(named, config, 1.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(simulable_odes(), RESOLUTIONS)
def test_run_equals_reference_stepper_on_compiled_programs(src, resolution):
    _, result = build(src)
    assert_run_equals_reference(result.netlist, SimConfig(dt=0.01, resolution=resolution), 1.0)


#: Breakpoints inside [-1, 1], unevenly spaced, so the end clamps and
#: every level of the lookup's comparison chain are reached.
TABLE = ((-0.8, 0.5), (-0.3, -0.2), (0.1, 0.9), (0.35, 0.9), (0.6, -1.0), (0.9, 0.25))
LOOKUP_POINTS = sorted(
    [x for x, _ in TABLE]
    + [math.nextafter(x, d) for x, _ in TABLE for d in (-math.inf, math.inf)]
    + [-1.0, -0.0, 0.0, 0.5, 1.0, -math.inf, math.inf])


def bisect_lookup(table, x):
    """The end-clamped piecewise-linear lookup by ``bisect_right``."""
    xs = [p[0] for p in table]
    ys = [p[1] for p in table]
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect.bisect_right(xs, x)
    return ys[i - 1] + (ys[i] - ys[i - 1]) * (x - xs[i - 1]) / (xs[i] - xs[i - 1])


class TestGeneratedLoopEdges:
    """Named cases of the run loop's code generation, each against the reference stepper."""

    @pytest.mark.parametrize("k0", [0.5, 1.0])
    @pytest.mark.parametrize("ic", [0.0, -0.0])
    def test_signed_zero_through_an_inverter_pair_into_an_integrator(self, k0, ic):
        # x integrates 0 * (+1) and stays on its signed zero; y reads
        # -(-(x)), so its derivative is -k0 * (-(-(x))) on every stage.
        elems = [reference("one", 1.0), coefficient("zero", "one", 0.0),
                 integrator("x", ["zero"], ic=ic, k0=k0), summer("n1", ["x"]),
                 summer("n2", ["n1"]), integrator("y", ["n2"], ic=-0.0, k0=k0)]
        netlist = Netlist(elems, names={e.id: e.id for e in elems})
        assert_run_equals_reference(netlist, SimConfig(dt=0.1), 0.3)

    def test_reference_quantized_out_of_range_overloads_every_step(self):
        # At resolution 0.6 the +1 reference reads 0.6 * round(1 / 0.6) = 1.2.
        elems = [reference("r", 1.0), integrator("i", ["r"], ic=0.0)]
        netlist = Netlist(elems, names={"r": "r", "i": "i"})
        config = SimConfig(dt=0.1, resolution=0.6)
        assert_run_equals_reference(netlist, config, 0.5)
        trace = new_instance(netlist, config).run(0.5)
        assert [ev.element for ev in trace.overloads] == ["r"] * 6  # step 0 and 5 steps
        assert trace.series["r"] == [1.0] * 6

    @pytest.mark.parametrize("k0", [0.5, 1.0])
    @pytest.mark.parametrize("ics", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_signed_zeros_through_a_sum_of_negated_terms(self, k0, ics):
        # s and z's derivative read -(x) - y, which is (-x) + (-y) and not
        # -(x + y) for zeros of opposite signs; w's derivative is -k0 * x,
        # stored as x or k0 * (x) with its sign apart.
        elems = [reference("one", 1.0), coefficient("zero", "one", 0.0),
                 integrator("x", ["zero"], ic=ics[0], k0=k0),
                 integrator("y", ["zero"], ic=ics[1], k0=k0), summer("nx", ["x"]),
                 summer("ny", ["y"]), summer("s", ["nx", "ny"]),
                 integrator("z", ["nx", "ny"], ic=-0.0, k0=k0),
                 integrator("w", ["x"], ic=-0.0, k0=k0)]
        netlist = Netlist(elems, names={e.id: e.id for e in elems})
        assert_run_equals_reference(netlist, SimConfig(dt=0.1), 0.3)

    def test_coefficient_quantized_out_of_range_overloads_every_step(self):
        # 0.9 * (+1) lies in [-1, 1], but at resolution 0.6 it reads
        # 0.6 * round(0.9 / 0.6) = 1.2: 0.6 * round(1 / 0.6) is 1.2, so
        # no net is taken as staying in range and each is checked per step.
        elems = [reference("r", 1.0), coefficient("k", "r", 0.9),
                 integrator("i", ["k"], ic=0.0, k0=0.1)]
        netlist = Netlist(elems, names={"k": "k", "i": "i"})
        config = SimConfig(dt=0.1, resolution=0.6)
        assert_run_equals_reference(netlist, config, 0.5)
        trace = new_instance(netlist, config).run(0.5)
        assert [ev.time for ev in trace.overloads if ev.element == "k"] == trace.tau
        assert trace.series["k"] == [1.0] * 6

    def test_lookup_one_ulp_past_its_breakpoint_overloads_every_step(self):
        # At the input just below x1, y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        # rounds to 1.0000000000000002 although y1 is 1: such a table is
        # not taken as staying in range, and its net is checked per step.
        x0, y0, x1 = -0.799741712099096, -0.920759573172591, 0.37378023030454477
        elems = [reference("one", 1.0), coefficient("zero", "one", 0.0),
                 integrator("i", ["zero"], ic=math.nextafter(x1, 0.0)),
                 function_generator("f", "i", [(x0, y0), (x1, 1.0)])]
        netlist = Netlist(elems, names={"f": "f"})
        assert_run_equals_reference(netlist, SimConfig(dt=0.1), 0.5)
        trace = new_instance(netlist, SimConfig(dt=0.1)).run(0.5)
        assert [ev.time for ev in trace.overloads] == trace.tau
        assert {ev.magnitude for ev in trace.overloads} == {1.0000000000000002}

    @pytest.mark.parametrize("x", LOOKUP_POINTS)
    def test_lookup_matches_bisection(self, x):
        # The inline lookup against bisect_right over the same formula, in
        # the generated loop (the net at step 0) and through element_output.
        expected = bisect_lookup(TABLE, x)
        assert repr(element_output(Kind.FUNCTION_GENERATOR, {"table": TABLE}, [x])) == repr(expected)
        if not -1.0 <= x <= 1.0:
            return
        elems = [reference("one", 1.0), coefficient("zero", "one", 0.0),
                 integrator("i", ["zero"], ic=x), function_generator("f", "i", TABLE),
                 integrator("j", ["f"], ic=0.0)]
        netlist = Netlist(elems, names={"f": "f", "j": "j"})
        assert repr(new_instance(netlist, SimConfig(dt=0.1)).value("f")) == repr(expected)
        assert_run_equals_reference(netlist, SimConfig(dt=0.1), 0.3)

    def test_sample_every_beyond_the_step_count(self):
        netlist = ramp_netlist(k0=2.0, ic=0.5)
        config = SimConfig(dt=0.1, sample_every=50)
        assert_run_equals_reference(netlist, config, 0.5)
        assert new_instance(netlist, config).run(0.5).tau == [0.0, 0.5]

    def test_long_chain_read_once_stays_within_the_parser(self):
        # 300 coefficients in series, each read once: inlined without a
        # bound they would nest 300 parentheses deep, past Python's 200.
        elems = [reference("one", 1.0)]
        for k in range(300):
            elems.append(coefficient(f"c{k}", elems[-1].id, 0.999))
        elems.append(integrator("i", ["c299"], ic=0.0))
        netlist = Netlist(elems, names={"i": "i"})
        assert_run_equals_reference(netlist, SimConfig(dt=0.1), 0.3)

    def test_span_off_the_step_grid_shrinks_the_step(self):
        netlist = ramp_netlist(ic=0.5)
        config = SimConfig(dt=0.3)
        assert_run_equals_reference(netlist, config, 1.0)
        assert new_instance(netlist, config).run(1.0).tau == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_zero_step_run(self):
        netlist = ramp_netlist(ic=0.5)
        assert_run_equals_reference(netlist, SimConfig(dt=0.1), 0.0)
        assert new_instance(netlist, SimConfig(dt=0.1)).run(0.0).tau == [0.0]


class TestHybridAttachment:
    def _vco(self):
        from conftest import VCO_SRC

        return build(VCO_SRC)

    def test_set_coefficient_points_on_pot_grid(self):
        # the 16-bit wiper grid is code/65535; 0.5 lands on the nearest code
        _, result = self._vco()
        inst = new_instance(result.netlist)
        coef = result.mapping.params["k"].element
        inst.set_coefficient(coef, 0.5)
        assert inst.get_coefficient(coef) == round(0.5 * 65535) / 65535
        assert inst.get_coefficient(coef) == pytest.approx(0.5, abs=1e-5)
        inst.set_coefficient(coef, 13107 / 65535)  # exactly representable code
        assert inst.get_coefficient(coef) == 13107 / 65535

    def test_set_coefficient_quantizes(self):
        _, result = self._vco()
        inst = new_instance(result.netlist)
        coef = result.mapping.params["k"].element
        inst.set_coefficient(coef, 1 / 3)
        assert inst.get_coefficient(coef) == round(65535 / 3) / 65535

    def test_set_coefficient_range(self):
        _, result = self._vco()
        inst = new_instance(result.netlist)
        coef = result.mapping.params["k"].element
        with pytest.raises(ValueError):
            inst.set_coefficient(coef, 1.2)

    def test_set_coefficient_wrong_kind(self):
        _, result = self._vco()
        inst = new_instance(result.netlist)
        with pytest.raises(KeyError):
            inst.set_coefficient("int1", 0.5)

    def test_set_coefficient_keeps_states(self, sine):
        _, result = build(SINE_SRC)
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        inst.run(0.5)
        states = dict(inst.states)
        # no coefficients in this netlist; exercise via a fresh vco instead
        _, vco = self._vco()
        vinst = new_instance(vco.netlist, SimConfig(dt=1e-3))
        vinst.run(0.5)
        before = dict(vinst.states)
        vinst.set_coefficient(vco.mapping.params["k"].element, 0.9)
        assert vinst.states == before
        assert states  # silence unused warning

    def test_adc_midtread(self, sine):
        _, result = sine
        inst = new_instance(result.netlist, SimConfig(adc_bits=12))
        assert inst.read_adc("y") == pytest.approx(0.5, abs=2 ** -12)

    def test_adc_zero_exact(self):
        n = ramp_netlist(ic=0.0)
        inst = new_instance(n)
        assert inst.read_adc("out") == 0.0

    def test_adc_unknown_net(self, sine):
        _, result = sine
        inst = new_instance(result.netlist)
        with pytest.raises(KeyError):
            inst.read_adc("zz")

    def test_adc_warns_in_op(self, sine):
        _, result = sine
        inst = new_instance(result.netlist)
        inst.set_mode(Mode.OP)
        with pytest.warns(SimulationWarning):
            inst.read_adc("y")

    def test_adc_bit_depths(self):
        inst = new_instance(ramp_netlist(ic=0.3), SimConfig(adc_bits=4))
        v = inst.read_adc("out")
        step = 2.0 ** (1 - 4)
        assert v == step * round(0.3 / step)


class TestFunctionGeneratorDynamics:
    def test_identity_table_decay_matches_closed_form(self):
        from conftest import DECAY_LUT_SRC

        _, result = build(DECAY_LUT_SRC)
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        trace = descale_trace(inst.run(5.0), result.mapping)
        err = max(abs(z - 0.9 * math.exp(-t)) for t, z in zip(trace.tau, trace.series["z"]))
        assert err < 1e-6


class TestMultiInputIntegrator:
    def test_inputs_are_summed_before_integration(self):
        from apc.machine import coefficient

        elems = [reference("one", 1.0), coefficient("half", "one", 0.5),
                 integrator("i", ["one", "half"], ic=0.0, k0=1.0)]
        n = Netlist(elems, names={"out": "i"})
        trace = new_instance(n, SimConfig(dt=1e-3)).run(0.5)
        assert trace.series["out"][-1] == pytest.approx(-0.75, abs=1e-9)


class TestDeterminism:
    def test_identical_runs(self, sine):
        _, result = sine
        cfg = SimConfig(dt=1e-3, resolution=1e-4, sample_every=7)
        t1 = new_instance(result.netlist, cfg).run(3.0)
        t2 = new_instance(result.netlist, cfg).run(3.0)
        assert t1.tau == t2.tau
        assert t1.series == t2.series
        assert t1.overloads == t2.overloads


#: Names that ``csv.writer`` quotes, or leaves as they are ("'", " "), and
#: "cr\rhere", which it leaves bare although ``csv.reader`` then rejects it.
AWKWARD_NAMES = ["y", "a,b", 'say "hi"', "two\nlines", "cr\rhere", '"', "y'", " x", ""]


def csv_writer_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, but with "cr\\rhere" quoted."""
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows(rows)
    return fh.getvalue().replace("cr\rhere", '"cr\rhere"')


class TestTraceFiles:
    def test_names_are_quoted_as_csv_writer_quotes_them(self):
        tau = [0.0, 0.1, 0.2]
        series = {name: [i * 0.5, -i / 3, 1e-300 * i] for i, name in enumerate(AWKWARD_NAMES)}
        events = [OverloadEvent(0.1 * i, name, 1.0 + i / 7) for i, name in
                  enumerate(AWKWARD_NAMES * 2)]
        trace = Trace(tau, series, events, time_label="t,ime")
        fh = io.StringIO()
        trace.write_csv(fh)
        assert fh.getvalue() == csv_writer_text(
            [["t,ime", *AWKWARD_NAMES]]
            + [[repr(t)] + [repr(series[n][i]) for n in AWKWARD_NAMES] for i, t in enumerate(tau)])
        assert next(csv.reader(io.StringIO(fh.getvalue(), newline=""))) == ["t,ime",
                                                                            *AWKWARD_NAMES]
        fh = io.StringIO()
        trace.write_overloads_csv(fh)
        assert fh.getvalue() == csv_writer_text(
            [["time", "element", "magnitude"]]
            + [[repr(ev.time), ev.element, repr(ev.magnitude)] for ev in events])
        rows = list(csv.reader(io.StringIO(fh.getvalue(), newline="")))
        assert [row[1] for row in rows[1:]] == [ev.element for ev in events]

    def test_long_files_are_written_a_line_at_a_time(self, tmp_path):
        """The runaway's 32,322 overloads and 30,001 samples each fill the
        file's write buffer many times over; both files equal what
        ``csv.writer`` writes, and no write hands over more than one line."""
        _, result = build(UNSTABLE_SRC)
        trace = new_instance(result.netlist, SimConfig(dt=1e-4)).run(3.0)
        trace.save(tmp_path / "t.csv", tmp_path / "t.overloads.csv")
        names = list(trace.series)
        expected = {
            "t.csv": csv_writer_text([["tau", *names]] + [
                [repr(v) for v in row] for row in zip(trace.tau, *trace.series.values())]),
            "t.overloads.csv": csv_writer_text([["time", "element", "magnitude"]] + [
                [repr(ev.time), ev.element, repr(ev.magnitude)] for ev in trace.overloads]),
        }
        for name, text in expected.items():
            assert len(text) > 50 * io.DEFAULT_BUFFER_SIZE
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name

        class Writes(io.StringIO):
            def write(self, s):
                self.lines = max(getattr(self, "lines", 0), s.count("\n"))
                return super().write(s)

        for write in (trace.write_csv, trace.write_overloads_csv):
            fh = Writes()
            write(fh)
            assert fh.lines == 1


class TestConfigValidation:
    def test_bad_dt(self):
        for dt in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                SimConfig(dt=dt)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            SimConfig(resolution=1.0)

    def test_bad_adc_bits(self):
        with pytest.raises(ValueError):
            SimConfig(adc_bits=0)

    def test_bad_sample_every(self):
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            SimConfig(sample_every=0)

    def test_non_finite_value_is_structural(self):
        # k0 * dt overflows: the first step's state update is -inf.
        elems = [reference("one", 1.0), integrator("i", ["one"], ic=0.0, k0=1e308),
                 summer("s", ["i"])]
        n = Netlist(elems, names={"out": "s"})
        inst = new_instance(n, SimConfig(dt=10.0))
        with pytest.raises(StructuralError):
            inst.run(10.0)
