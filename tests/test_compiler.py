import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apc import compiler, dsl, machine, scaling, simulator
from apc.compiler import (
    CompileOptions,
    NetlistBuilder,
    ScaleMap,
    _FLut,
    _mk_sum,
    _NSum,
    _Term,
    build_integrator_chain,
    compile_system,
    normalize,
)
from apc.fabric import THAT, ResourceError, map_netlist
from apc.machine import Kind, ScalingError, is_inverter, netlist_to_dict
from apc.scaling import reference_solution
from apc.dsl import Bin, Call, Neg, Num, Ref, evaluate, signal_name
from conftest import (SINE_SRC, VCO_SRC, build, compilable_programs, first_order_programs,
                      heat_src, resolve_src)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

COUPLED_SRC = """\
system coupled
var y order 2
var z order 1
eq y'' = -y - 0.5*z
eq z' = 0.5*y' - 0.2*z
init y = 0.3
init y' = 0.2
init z = -0.4
time 5
output y, y', y'', z, z'
"""


class TestIntegratorChain:
    def test_second_order_signs(self):
        b = NetlistBuilder()
        entry, entries = build_integrator_chain(b, "y", 2, [0.5, 0.866], k0=1.0, gains=[1.0] * 2)
        first, second = b.elements["int1"], b.elements["int2"]
        assert first.params["ic"] == -0.866  # carries -y'
        assert second.params["ic"] == 0.5  # carries +y
        assert entries[("y", 1)] == ("int1", -1)
        assert entries[("y", 0)] == ("int2", 1)
        assert entry == "int1"

    def test_first_order(self):
        b = NetlistBuilder()
        _, entries = build_integrator_chain(b, "y", 1, [0.0], k0=1.0, gains=[1.0])
        assert entries[("y", 0)] == ("int1", -1)
        assert b.elements["int1"].params["ic"] == 0.0

    def test_third_order_parities_alternate(self):
        b = NetlistBuilder()
        _, entries = build_integrator_chain(b, "y", 3, [0.0, 0.0, 0.0], k0=1.0, gains=[1.0] * 3)
        assert [entries[("y", k)][1] for k in (2, 1, 0)] == [-1, 1, -1]

    def test_out_of_range_init_is_scaling_violation(self):
        b = NetlistBuilder()
        with pytest.raises(ScalingError, match="^initial condition of y is 5 machine units; "):
            build_integrator_chain(b, "y", 1, [5.0], k0=1.0, gains=[1.0])


class TestSineCompile:
    def test_structure_matches_feedback_circuit(self, sine):
        _, result = sine
        assert result.report == {"integrator": 2, "inverter": 1}
        kinds = [e.kind for e in result.netlist.elements.values()]
        assert kinds.count(Kind.INTEGRATOR) == 2

    def test_initial_conditions(self, sine):
        _, result = sine
        ints = [e for e in result.netlist.elements.values() if e.kind is Kind.INTEGRATOR]
        assert ints[0].params["ic"] == pytest.approx(-math.cos(math.pi / 6))
        assert ints[1].params["ic"] == pytest.approx(0.5)

    def test_outputs_named(self, sine):
        _, result = sine
        assert set(result.netlist.outputs) == {"y", "y'"}
        assert result.mapping.signals["y"].parity == 1
        assert result.mapping.signals["y'"].parity == -1  # derivative taps keep chain parity

    def test_squared_param_not_sweepable(self, sine):
        _, result = sine
        assert "omega" not in result.mapping.params


class TestFig2Compile:
    def test_counts(self, fig2):
        _, result = fig2
        counts = result.netlist.counts()
        assert counts["multiplier"] == 1
        assert counts.get("summer", 0) + counts.get("inverter", 0) <= 2

    def test_steady_value(self, fig2):
        _, result = fig2
        inst = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-3))
        trace = simulator.descale_trace(inst.run(0.01), result.mapping)
        assert trace.series["x"][-1] == pytest.approx(0.25, abs=1e-12)

    def test_no_feedback_edges(self, fig2):
        _, result = fig2
        assert all(e.kind is not Kind.INTEGRATOR for e in result.netlist.elements.values())


class TestSynthesis:
    def test_constant_gain_becomes_coefficient(self):
        _, result = build("system t\nvar y order 1\neq y' = 0.25*y\ninit y = 0.5\ntime 1\n")
        coefs = [e for e in result.netlist.elements.values() if e.kind is Kind.COEFFICIENT]
        assert len(coefs) == 1 and coefs[0].params["alpha"] == 0.25

    def test_unscaled_coefficient_rejected(self):
        system = resolve_src("system t\nvar y order 2\neq y'' = -2*y\n"
                             "init y = 0.5\ninit y' = 0\ntime 1\n")
        with pytest.raises(ScalingError, match="^unscaled coefficient -2: term gains "):
            compile_system(system)

    def test_unscaled_constant_addend_rejected(self):
        system = resolve_src("system t\nvar y order 1\neq y' = -y + 1.5\ninit y = 0\ntime 1\n")
        with pytest.raises(ScalingError, match="^unscaled coefficient 1.5: constants "):
            compile_system(system)

    def test_algebraic_cycle_names_the_cycle(self):
        # resolve rejects the loop, so no system with one reaches the compiler
        program, _ = dsl.parse("system t\nvar x order 0\nvar w order 0\n"
                               "eq x = w\neq w = x\ntime 1\n")
        message = "algebraic cycle among order-0 variables: ['w', 'x']"
        assert dsl.resolve(program) == (None, [dsl.Diagnostic(5, 1, message)])

    def test_lut_lowering(self):
        _, result = build("system t\nvar z order 1\neq z' = -lut(f, z)\ninit z = 0.9\n"
                          "table f = (-1, -1) (0, 0) (1, 1)\ntime 5\noutput z\n")
        fgens = [e for e in result.netlist.elements.values()
                 if e.kind is Kind.FUNCTION_GENERATOR]
        assert len(fgens) == 1

    def test_constant_rhs_for_order_zero_var(self):
        _, result = build("system t\nvar x order 0\neq x = -0.75\ntime 1\noutput x\n")
        inst = simulator.new_instance(result.netlist)
        assert inst.value("x") == pytest.approx(-0.75)

    def test_zero_rhs(self):
        _, result = build("system t\nvar y order 1\neq y' = 0\ninit y = 0.5\ntime 1\n")
        inst = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-2))
        trace = inst.run(1.0)
        # the odd-order chain carries -y, and the output reads it there
        assert trace.series["y"][-1] == pytest.approx(-0.5)
        assert result.mapping.signals["y"].parity == -1
        assert simulator.descale_trace(trace, result.mapping).series["y"][-1] == pytest.approx(0.5)
        # the empty sum is a zero coefficient on a +1 reference
        elements = result.netlist.elements
        assert elements["int1"].inputs == ("coef1",)
        assert (elements["coef1"].params, elements["coef1"].inputs) == ({"alpha": 0.0}, ("ref1",))
        assert elements["ref1"].params == {"constant": 1.0}


class TestSynthesisEdgeCases:
    def test_triple_product_cascades_multipliers(self):
        src = ("system triple\nvar y order 1\nvar z order 1\nvar w order 1\n"
               "eq y' = -y*z*w\neq z' = -0.3*z\neq w' = -0.2*w\n"
               "init y = 0.9\ninit z = 0.8\ninit w = 0.7\ntime 2\noutput y, z, w\n")
        _, result = build(src)
        assert result.netlist.counts()["multiplier"] == 2

    def test_cancelling_terms_keep_zero_dynamics(self):
        _, result = build("system t\nvar y order 1\neq y' = y - y\ninit y = 0.4\ntime 1\n")
        trace = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-2)).run(1.0)
        trace = simulator.descale_trace(trace, result.mapping)
        assert trace.series["y"][-1] == pytest.approx(0.4)

    def test_lut_of_constant_argument(self):
        src = ("system clut\nvar x order 0\neq x = lut(f, 0.5)\n"
               "table f = (-1, -1) (0, 0) (1, 1)\ntime 1\noutput x\n")
        _, result = build(src)
        assert simulator.new_instance(result.netlist).value("x") == pytest.approx(0.5)

    @pytest.mark.parametrize("src", [
        "system t\nvar y order 2\nvar x order 0\neq y'' = -y\neq x = y\n"
        "init y = 0.5\ninit y' = 0\ntime 1\n",
        "system t\nvar x order 2\neq x'' = x\ninit x = 0.25\ninit x' = 0\ntime 1\n"
        "output x'', x, x'\n",
    ])
    def test_outputs_on_one_net_each_get_a_name(self, src):
        # x and y (x'' and x) live on one net; the second output gets a unit buffer
        _, result = build(src)
        assert sorted(result.netlist.names) == sorted(result.netlist.outputs)
        values = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-3)).run(0.5).final()
        first, second = result.netlist.outputs[:2]
        assert values[first] == values[second]

    @pytest.mark.parametrize("src", [
        VCO_SRC.replace("param k = 0.5", "param k = 0"),
        "system t\nvar y order 2\neq y'' = 0*y\ninit y = 0.25\ninit y' = 0.5\ntime 1\n"
        "output y, y'\n",
        "system t\nvar y order 2\nvar x order 0\neq x = (0.1 - 0.1)*y\neq y'' = x\n"
        "init y = -0.5\ninit y' = 0.25\ntime 1\noutput y, y'\n",
    ], ids=["vco-k-0", "zero-times-y", "cancelled-times-y"])
    def test_a_zero_factor_leaves_no_product(self, src):
        """A product with a factor 0 is the constant 0: no multiplier, no pot
        on a term that is identically 0, and the run is y'' = 0's."""
        system, result = build(src)
        assert "multiplier" not in result.netlist.counts()
        y0, dy0 = system.inits[("y", 0)], system.inits[("y", 1)]
        trace = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-3)).run(1.0)
        assert trace.series["y"] == pytest.approx([y0 + dy0 * t for t in trace.tau], abs=1e-12)

    def test_unit_constant_addend_is_bare_reference(self):
        _, result = build("system t\nvar y order 1\neq y' = -y - 1\ninit y = 0\ntime 0.5\n")
        counts = result.netlist.counts()
        assert counts.get("reference") == 1 and "coefficient" not in counts
        trace = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-4)).run(0.5)
        trace = simulator.descale_trace(trace, result.mapping)
        assert trace.series["y"][-1] == pytest.approx(math.exp(-0.5) - 1, abs=1e-9)


class TestDeterminism:
    def test_identical_netlists(self):
        s1, r1 = build(COUPLED_SRC)
        s2, r2 = build(COUPLED_SRC)
        assert netlist_to_dict(r1.netlist) == netlist_to_dict(r2.netlist)
        assert r1.mapping.to_dict() == r2.mapping.to_dict()


class TestParitySoundness:
    def test_all_signals_match_reference(self):
        system, result = build(COUPLED_SRC)
        inst = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-3))
        trace = inst.run(system.horizon)
        oracle = reference_solution(system, t_eval=np.asarray(trace.tau))
        assert not trace.overloads
        for name, binding in result.mapping.signals.items():
            var = name.rstrip("'")
            order = len(name) - len(var)
            sim = np.array(trace.series[name]) * binding.parity * binding.scale
            ref = oracle.signals[(var, order)]
            assert np.max(np.abs(sim - ref)) < 1e-6, name

    def test_feedback_legality(self):
        import networkx as nx

        for src in (SINE_SRC, COUPLED_SRC):
            _, result = build(src)
            netlist = result.netlist
            g = nx.DiGraph()
            g.add_nodes_from(netlist.elements)
            g.add_edges_from((nid, e.id)
                             for e in netlist.elements.values() for nid in e.inputs)
            for cycle in nx.simple_cycles(g):
                kinds = {result.netlist.elements[eid].kind for eid in cycle}
                assert Kind.INTEGRATOR in kinds


class TestScaledCompile:
    def test_stage_coefficients_for_fast_oscillator(self):
        # omega = 5 factored as alpha * k0 with alpha = 0.5, k0 = 10; the
        # chain then carries normalized derivatives y'/5, with a
        # coefficient ahead of each integrator.
        src = ("system fast\nvar y order 2\neq y'' = -25*y\n"
               "init y = 0.25\ninit y' = 2.1650635094610966\n"
               "bound y = 1\nbound y' = 5\nbound y'' = 25\ntime 2\noutput y\n")
        system = resolve_src(src)
        bounds = scaling.estimate_bounds(system)
        scale = scaling.amplitude_scale(system, bounds)
        scale = ScaleMap(scale.amplitude, 1.0, 10.0)
        result = compile_system(system, CompileOptions(scale=scale))
        counts = result.netlist.counts()
        assert counts == {"integrator": 2, "coefficient": 2, "inverter": 1}
        alphas = sorted(e.params["alpha"] for e in result.netlist.elements.values()
                        if e.kind is Kind.COEFFICIENT)
        assert alphas == [0.5, 0.5]

        inst = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-4))
        trace = inst.run(2.0)
        ref = [0.5 * math.sin(5 * t + math.pi / 6) for t in trace.tau]
        err = max(abs(a - b) for a, b in zip(trace.series["y"], ref))
        assert err < 1e-5
        assert not trace.overloads

    def test_stage_gain_above_one_rejected(self):
        # A hand-made scale in which y' carries twice y's factor: the stage
        # into y needs alpha = lambda * 2 / (1 * k0) = 2.
        system = resolve_src("system s\nvar y order 1\neq y' = -0.5*y\ninit y = 0.5\ntime 1\n")
        scale = ScaleMap({("y", 0): 1.0, ("y", 1): 2.0})
        with pytest.raises(ScalingError,
                           match=re.escape("stage gain 2 needs alpha 2 at k0=1; rerun time scaling")):
            compile_system(system, CompileOptions(scale=scale))

    def test_scaled_inits_in_range(self):
        from conftest import SINE5_SRC

        system = resolve_src(SINE5_SRC)
        scale = scaling.autoscale(system)
        result = compile_system(system, CompileOptions(scale=scale))
        for e in result.netlist.elements.values():
            if e.kind is Kind.INTEGRATOR:
                assert -1.0 <= e.params["ic"] <= 1.0


class TestSweepBindings:
    def test_linear_param_maps_to_coefficient(self):
        _, result = build(VCO_SRC)
        binding = result.mapping.params["k"]
        element = result.netlist.elements[binding.element]
        assert element.kind is Kind.COEFFICIENT
        assert element.params["alpha"] == pytest.approx(0.5)
        assert abs(binding.scale * 0.8) == pytest.approx(0.8)  # alpha for k = 0.8

    def test_param_addend_binds_through_reference(self):
        _, result = build("system t\nparam c = 0.25\nvar y order 1\n"
                          "eq y' = -y + c\ninit y = 0\ntime 1\n")
        assert "c" in result.mapping.params

    def test_multi_use_param_not_sweepable(self):
        _, result = build("system t\nparam k = 0.5\nvar y order 1\nvar z order 1\n"
                          "eq y' = -k*y\neq z' = -k*z\ninit y = 0.5\ninit z = 0.5\ntime 1\n")
        assert "k" not in result.mapping.params


# --- element-count bound over random linear constant-coefficient ODEs -------

@st.composite
def linear_odes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    orders = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    coeffs = [draw(st.floats(min_value=-1, max_value=1).filter(lambda c: abs(c) > 1e-3))
              for _ in orders]
    terms = " + ".join(f"{c!r}*y{chr(39) * k}" for c, k in zip(coeffs, orders))
    lines = [f"system rand", f"var y order {n}", f"eq y{chr(39) * n} = {terms}"]
    lines += [f"init y{chr(39) * k} = 0" for k in range(n)]
    lines += ["time 1", f"output y{chr(39) * n}"]  # top signal has parity +1: no tap
    return "\n".join(lines) + "\n", len(orders), n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(linear_odes())
def test_element_count_bound(case):
    src, nterms, order = case
    _, result = build(src)
    counts = result.netlist.counts()
    assert counts["integrator"] == order
    work = sum(counts.get(k, 0) for k in ("summer", "inverter", "coefficient"))
    assert work <= nterms + 2


def test_heat_census():
    """heat-32, autoscaled: per node an integrator, a summer of the
    neighbour terms, an inverter of the self term and the pots. Its 32
    outputs ride at their integrators' parity -1, so no inverter serves
    an output, and machine `that` is short 56 summers."""
    system = resolve_src(heat_src(32))
    result = compile_system(system, CompileOptions(scale=scaling.autoscale(system)))
    assert len(result.netlist.elements) == 224 and result.report["inverter"] == 32
    with pytest.raises(ResourceError) as exc:
        map_netlist(result.netlist, THAT)
    assert exc.value.deficits["summer"] == 56


@st.composite
def simulable_odes(draw):
    """Random linear systems with small ICs, kept inside machine range."""
    n = draw(st.integers(min_value=1, max_value=3))
    orders = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    coeffs = [draw(st.floats(min_value=-1, max_value=1).filter(lambda c: abs(c) > 1e-2))
              for _ in orders]
    inits = [draw(st.floats(min_value=-0.05, max_value=0.05)) for _ in range(n)]
    terms = " + ".join(f"{c!r}*y{chr(39) * k}" for c, k in zip(coeffs, orders))
    lines = ["system rand", f"var y order {n}", f"eq y{chr(39) * n} = {terms}"]
    lines += [f"init y{chr(39) * k} = {v!r}" for k, v in enumerate(inits)]
    lines += ["time 1"]
    lines += ["output " + ", ".join(f"y{chr(39) * k}" for k in range(n + 1))]
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(simulable_odes())
def test_parity_soundness_on_random_linear_systems(src):
    from hypothesis import assume

    system, result = build(src)
    oracle = reference_solution(system)
    assume(max(float(np.max(np.abs(a))) for a in oracle.signals.values()) < 0.9)

    inst = simulator.new_instance(result.netlist, simulator.SimConfig(dt=1e-3))
    trace = inst.run(system.horizon)
    against = reference_solution(system, t_eval=np.asarray(trace.tau))
    assert not trace.overloads
    for name, binding in result.mapping.signals.items():
        var = name.rstrip("'")
        order = len(name) - len(var)
        sim = np.array(trace.series[name]) * binding.parity * binding.scale
        ref = against.signals[(var, order)]
        assert np.max(np.abs(sim - ref)) < 1e-6, name


# --- no redundant inverters over generated programs --------------------------

def assert_no_redundant_inverters(result):
    """What an inverter cleanup pass would find: an inverter reading an
    inverter, a multiplier reading an inverter, an inverter that no
    element reads (an output rides at its net's parity instead), an
    element that reaches neither an integrator nor a signal's net."""
    netlist = result.netlist
    source = netlist.elements
    read = {n for e in netlist.elements.values() for n in e.inputs}
    for e in netlist.elements.values():
        if is_inverter(e):
            assert not is_inverter(source[e.inputs[0]]), f"{e.id} reads an inverter"
            assert e.id in read, f"{e.id} is an inverter that no element reads"
        if e.kind is Kind.MULTIPLIER:
            assert not any(is_inverter(source[n]) for n in e.inputs), f"{e.id} reads an inverter"
    live = set()
    stack = [e for e in netlist.elements.values() if e.kind is Kind.INTEGRATOR]
    stack += [source[b.net] for b in result.mapping.signals.values()]
    while stack:
        e = stack.pop()
        if e.id not in live:
            live.add(e.id)
            stack.extend(source[n] for n in e.inputs)
    assert live == set(netlist.elements), f"dead elements {set(netlist.elements) - live}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(compilable_programs())
def test_lowering_places_no_redundant_inverter(src):
    system = resolve_src(src)
    assert_no_redundant_inverters(compile_system(system, CompileOptions(scale=ScaleMap.identity())))
    try:
        scale = scaling.autoscale(system)
    except ScalingError:
        return
    # what the scaler accepts, the compiler builds
    assert_no_redundant_inverters(compile_system(system, CompileOptions(scale=scale)))


# --- each netlist matches its source, point by point -------------------------
# Translation validation: at integrator states drawn in [-1, 1], every net
# the netlist computes is compared with what the source's equations say it
# carries. No step size and no oracle enters.

def _integrator_of(netlist, net: str):
    """The integrator whose output ``net`` carries, through the unit
    coefficients (buffers) that the compiler adds for outputs on one net."""
    e = netlist.elements[net]
    while e.kind is Kind.COEFFICIENT and e.params["alpha"] == 1.0:
        e = netlist.elements[e.inputs[0]]
    assert e.kind is Kind.INTEGRATOR, f"{net} is not an integrator's output"
    return e


def assert_matches_source(system, result, seed: int, points: int = 3):
    """Each integrator's rate -k0 sum(inputs) is parity lambda / m times its
    signal's next derivative, each order-0 and top-derivative net carries
    parity x / m of its source value x, and each lookup agrees with the
    source's own (``np.interp``) to a few ulps."""
    netlist, mapping = result.netlist, result.mapping
    order = machine.evaluation_order(netlist)
    rng = np.random.default_rng(seed)
    chain = [(v, k) for v, n in system.var_order.items() for k in range(n)]
    integrators = {key: _integrator_of(netlist, mapping.signals[signal_name(*key)].net)
                   for key in chain}
    assert sorted(e.id for e in integrators.values()) == sorted(
        e.id for e in netlist.elements.values() if e.kind is Kind.INTEGRATOR)
    value = {}

    def inputs(e):
        return [value[n] for n in e.inputs]

    def net(key):
        b = mapping.signals[signal_name(*key)]
        return b, value[b.net]

    for _ in range(points):
        value.update((e.id, rng.uniform(-1.0, 1.0)) for e in integrators.values())
        for eid in order:
            e = netlist.elements[eid]
            value[eid] = machine.element_output(e.kind, e.params, inputs(e))
            if e.kind is Kind.FUNCTION_GENERATOR:
                xs, ys = zip(*e.params["table"])
                ulps = 4 * math.ulp(max(map(abs, ys)))
                assert abs(value[eid] - np.interp(inputs(e)[0], xs, ys)) <= ulps, eid
        env = {}
        for key in chain:
            b, y = net(key)
            env[key] = b.parity * b.scale * y
        hooks = scaling.float_hooks(env, system.params, system.tables)
        for v in system.order0:
            env[(v, 0)] = evaluate(system.equations[v], *hooks)
        for v, n in system.var_order.items():
            if n:
                env[(v, n)] = evaluate(system.equations[v], *hooks)
            b, y = net((v, n))
            assert math.isclose(y, b.parity * env[(v, n)] / b.scale,
                                rel_tol=1e-9, abs_tol=1e-9), signal_name(v, n)
        for (v, k), e in integrators.items():
            b, _ = net((v, k))
            rate = -e.params["k0"] * sum(inputs(e))
            assert math.isclose(rate, b.parity * mapping.lam * env[(v, k + 1)] / b.scale,
                                rel_tol=1e-9, abs_tol=1e-9), signal_name(v, k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(compilable_programs(), st.integers(0, 2**32 - 1))
def test_netlists_match_their_source_pointwise(src, seed):
    system = resolve_src(src)
    assert_matches_source(system, compile_system(system, CompileOptions(scale=ScaleMap.identity())),
                          seed)
    try:
        scale = scaling.autoscale(system)
    except ScalingError:
        return
    assert_matches_source(system, compile_system(system, CompileOptions(scale=scale)), seed)


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS.glob("*.apc")))
def test_sample_netlists_match_their_source_pointwise(name):
    system = resolve_src((PROGRAMS / f"{name}.apc").read_text())
    assert_matches_source(system, compile_system(system, CompileOptions(
        scale=scaling.autoscale(system))), seed=len(name), points=20)


# --- the normal form against the walker it replaced --------------------------

def reference_normalize(expr, system, fold_zero: bool = True) -> _NSum:
    """The recursive walker ``compiler.normalize`` was before it built the
    form through ``dsl.evaluate``, with each signal factor a ``Ref``. The
    one rule it lacked is ``fold_zero``'s: a product with a factor that
    normalizes to the empty sum (0) is the empty sum, not a product with
    that sum as a factor."""
    if isinstance(expr, Num):
        return _mk_sum([_Term(expr.value, Counter(), [])])
    if isinstance(expr, Ref):
        if expr.name in system.params:
            return _mk_sum([_Term(system.params[expr.name], Counter({expr.name: 1}), [])])
        return _mk_sum([_Term(1.0, Counter(), [Ref(expr.name, expr.order)])])

    def negated(n):
        return _NSum([_Term(-t.coeff, t.pexps, t.factors) for t in n.terms])

    def scaled(n, c, pexps):
        return _mk_sum([_Term(t.coeff * c, t.pexps + pexps, t.factors) for t in n.terms])

    def is_const(n):
        return len(n.terms) == 1 and not n.terms[0].factors

    if isinstance(expr, Neg):
        return negated(reference_normalize(expr.operand, system, fold_zero))
    if isinstance(expr, Bin):
        left = reference_normalize(expr.left, system, fold_zero)
        right = reference_normalize(expr.right, system, fold_zero)
        if expr.op == "+":
            return _mk_sum(left.terms + right.terms)
        if expr.op == "-":
            return _mk_sum(left.terms + negated(right).terms)
        if fold_zero and not (left.terms and right.terms):
            return _NSum([])
        if is_const(left):
            return scaled(right, left.terms[0].coeff, left.terms[0].pexps)
        if is_const(right):
            return scaled(left, right.terms[0].coeff, right.terms[0].pexps)

        def as_factors(n):
            if len(n.terms) == 1:
                t = n.terms[0]
                return t.coeff, t.pexps, t.factors
            return 1.0, Counter(), [n]

        lc, lp, lf = as_factors(left)
        rc, rp, rf = as_factors(right)
        return _mk_sum([_Term(lc * rc, lp + rp, lf + rf)])
    if isinstance(expr, Call) and expr.func == "lut":
        arg = reference_normalize(expr.args[1], system, fold_zero)
        return _mk_sum([_Term(1.0, Counter(), [_FLut(expr.args[0].name, arg)])])
    raise TypeError(f"cannot normalize {expr!r}")


def plain(n: _NSum) -> list:
    """A normal form as plain values, term by term: the repr of the
    coefficient, the param exponents in order, and the factors."""
    def factor(f):
        if isinstance(f, _NSum):
            return plain(f)
        if isinstance(f, _FLut):
            return (f.table, plain(f.arg))
        return f
    return [(repr(t.coeff), list(t.pexps.items()), [factor(f) for f in t.factors])
            for t in n.terms]


def assert_normal_forms_match(src: str) -> None:
    system = resolve_src(src)
    for expr in system.equations.values():
        assert plain(normalize(expr, system)) == plain(reference_normalize(expr, system)), expr


@pytest.mark.parametrize("strategy", [compilable_programs, simulable_odes, first_order_programs])
def test_normal_form_matches_the_recursive_walker(strategy):
    settings(max_examples=400, deadline=None, derandomize=True)(
        given(strategy())(assert_normal_forms_match))()


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS.glob("*.apc")))
def test_sample_normal_forms_match_the_recursive_walker(name):
    assert_normal_forms_match((PROGRAMS / f"{name}.apc").read_text())


@pytest.mark.parametrize("rhs", ["0*y", "y*(0.1 - 0.1)", "-k*y", "(y + 0.5*y')*0", "lut(f, y)*0"])
def test_a_zero_factor_folds_its_product(rhs):
    """Without the zero rule the recursive walker builds a product with the
    empty sum as a factor, which lowered to a multiplier fed by a pot at 0."""
    system = resolve_src("system t\nparam k = 0\nvar y order 2\ntable f = (-1, -1) (1, 1)\n"
                         f"eq y'' = {rhs}\ninit y = 0.5\ninit y' = 0\ntime 1\n")
    expr = system.equations["y"]
    assert normalize(expr, system).terms == []
    unfolded = reference_normalize(expr, system, fold_zero=False).terms
    assert [_NSum([]) in t.factors for t in unfolded] == [True]


def test_only_lut_calls_normalize():
    system = resolve_src("system t\nvar y order 1\neq y' = -y\ninit y = 0.5\ntime 1\n")
    with pytest.raises(TypeError, match="^cannot normalize Call"):
        normalize(Call("sin", (Ref("y"),)), system)
