import bisect
import math
import re
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apc.dsl import (Bin, Call, Decl, Num, Program, Ref, TableDecl, TimeDecl, VarDecl, parse, pretty,
                     resolve)
from apc.machine import (
    AlgebraicLoopError,
    Element,
    Kind,
    Netlist,
    StructuralError,
    coefficient,
    element_output,
    evaluation_order,
    function_generator,
    integrator,
    load_netlist,
    multiplier,
    net_bounds,
    netlist_from_dict,
    netlist_to_dict,
    reference,
    save_netlist,
    summer,
    Violation,
    validate,
)
from apc.simulator import new_instance
from conftest import NETS_KEY, named, with_old_net_table


def fig2_netlist():
    """x = a(b+c) with constant sources a=0.5, b=c=0.25."""
    elems = [
        reference("ref1", 1.0),
        coefficient("a", "ref1", 0.5),
        coefficient("b", "ref1", 0.25),
        coefficient("c", "ref1", 0.25),
        summer("sum1", ["b", "c"]),
        summer("inv1", ["sum1"]),
        multiplier("mul1", "a", "inv1"),
    ]
    return Netlist(named(elems, mul1="x"))


class TestElementOutput:
    def test_summer_negates_sum(self):
        assert element_output(Kind.SUMMER, {}, [0.25, 0.25]) == -0.5

    def test_single_input_summer_is_inverter(self):
        assert element_output(Kind.SUMMER, {}, [0.7]) == -0.7

    def test_multiplier(self):
        assert element_output(Kind.MULTIPLIER, {}, [0.5, -0.5]) == -0.25

    def test_coefficient_zero_annihilates(self):
        assert element_output(Kind.COEFFICIENT, {"alpha": 0.0}, [0.9]) == 0.0

    def test_function_generator_identity_table(self):
        table = ((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0))
        assert element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [0.3]) == pytest.approx(0.3)

    def test_function_generator_clamps_ends(self):
        table = ((-0.5, -0.25), (0.5, 0.25))
        assert element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [0.9]) == 0.25
        assert element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [-0.9]) == -0.25

    def test_reference(self):
        assert element_output(Kind.REFERENCE, {"constant": -1.0}, []) == -1.0

    def test_integrator_returns_state(self):
        assert element_output(Kind.INTEGRATOR, {"ic": 0.0, "k0": 1.0}, [0.5], state=0.25) == 0.25

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError):
            element_output(Kind.MULTIPLIER, {}, [0.5])
        with pytest.raises(StructuralError):
            element_output(Kind.COEFFICIENT, {"alpha": 0.5}, [0.1, 0.2])
        with pytest.raises(StructuralError, match=re.escape("reference takes 0..0 inputs, got 1")):
            element_output(Kind.REFERENCE, {"constant": 1.0}, [0.5])

    @given(st.floats(-1, 1), st.floats(0, 1))
    def test_coefficient_never_amplifies(self, x, alpha):
        assert abs(element_output(Kind.COEFFICIENT, {"alpha": alpha}, [x])) <= abs(x)

    @given(st.floats(-1, 1))
    def test_summer_single_input_exact_negation(self, x):
        assert element_output(Kind.SUMMER, {}, [x]) == -x


class TestValidate:
    def test_fig2_netlist_is_clean(self):
        assert validate(fig2_netlist()) == []

    def test_coefficient_range(self):
        n = Netlist([reference("r", 1.0), coefficient("k", "r", 1.5)])
        rules = {v.rule for v in validate(n)}
        assert "param-range" in rules

    def test_dangling_input(self):
        n = Netlist([reference("r", 1.0), multiplier("m", "r", "ghost")])
        report = validate(n)
        assert any(v.rule == "dangling-input" and v.element == "m" for v in report)

    def test_missing_output_name(self):
        n = Netlist([reference("r", 1.0)], outputs=("y",))
        assert any(v.rule == "missing-output" for v in validate(n))

    def test_arity_violation(self):
        n = Netlist([reference("r", 1.0), Element("s", Kind.SUMMER, {}, ())])
        assert any(v.rule == "arity" and v.element == "s" for v in validate(n))

    def test_integrator_param_ranges(self):
        n = Netlist([reference("r", 1.0), integrator("i", ["r"], ic=1.5, k0=-1.0)])
        msgs = [v for v in validate(n) if v.rule == "param-range"]
        assert len(msgs) == 2

    def test_bad_table(self):
        n = Netlist(
            [reference("r", 1.0), function_generator("f", "r", [(0.5, 0.0), (-0.5, 0.1)])]
        )
        assert any(v.rule == "param-range" for v in validate(n))


class TestGraphAnalysis:
    def test_oscillator_loop_passes_through_integrators(self, sine):
        _, result = sine
        algebraic = {eid for eid, e in result.netlist.elements.items()
                     if e.kind is not Kind.INTEGRATOR}
        assert set(evaluation_order(result.netlist)) == algebraic

    def test_two_summers_feeding_each_other(self):
        n = Netlist([summer("s1", ["s2"]), summer("s2", ["s1"])])
        with pytest.raises(AlgebraicLoopError) as err:
            evaluation_order(n)
        assert err.value.cycles == [["s1", "s2"]]

    def test_loop_feeding_diamonds_is_not_exponential(self):
        # 2^20 paths lead away from the loop; a search that walked them all
        # would take tens of seconds instead of milliseconds.
        elems, prev = [summer("a1", ["a2"]), summer("a2", ["a1"])], "a2"
        for i in range(20):
            b, c, j = f"d{i:02d}b", f"d{i:02d}c", f"d{i:02d}j"
            elems += [summer(b, [prev]), summer(c, [prev]), summer(j, [b, c])]
            prev = j
        start = time.perf_counter()
        with pytest.raises(AlgebraicLoopError) as err:
            evaluation_order(Netlist(elems))
        assert err.value.cycles == [["a1", "a2"]]
        assert time.perf_counter() - start < 2.0

    def test_empty_netlist(self):
        n = Netlist([])
        assert evaluation_order(n) == []

    def test_fig2_order(self):
        order = evaluation_order(fig2_netlist())
        assert order.index("sum1") < order.index("inv1") < order.index("mul1")

    def test_single_reference(self):
        n = Netlist([reference("r", 1.0)])
        assert evaluation_order(n) == ["r"]

    def test_order_rejects_cycles(self):
        n = Netlist([summer("s1", ["s2"]), summer("s2", ["s1"])])
        with pytest.raises(AlgebraicLoopError):
            evaluation_order(n)


# -- random valid DAG netlists for the executable-order and round-trip laws --

@st.composite
def dag_netlists(draw):
    """Every kind, references of either sign, and integrators of 1-3 inputs
    with gains 0.5, 1 and 10, each input through 0-2 inverters: enough to
    reach each of the simulator's sign folds, -(-(X)), -k0 * (-(X)) and
    -1.0 * (X)."""
    n = draw(st.integers(min_value=1, max_value=12))
    signs = st.sampled_from([1.0, -1.0])
    elems = [reference("ref0", draw(signs))]
    nets = ["ref0"]
    for i in range(1, n + 1):
        eid = f"e{i}"
        kind = draw(st.sampled_from(["summer", "multiplier", "coefficient", "integrator", "fgen",
                                     "reference"]))
        pick = lambda: draw(st.sampled_from(nets))  # noqa: E731
        some = lambda: [pick() for _ in range(draw(st.integers(1, 3)))]  # noqa: E731
        if kind == "summer":
            elems.append(summer(eid, some()))
        elif kind == "multiplier":
            elems.append(multiplier(eid, pick(), pick()))
        elif kind == "coefficient":
            elems.append(coefficient(eid, pick(), draw(st.floats(0, 1))))
        elif kind == "integrator":
            inputs = []
            for j, net in enumerate(some()):  # through 0-2 inverters of its own
                for k in range(draw(st.integers(0, 2))):
                    elems.append(summer(f"{eid}n{j}{k}", [net]))
                    net = f"{eid}n{j}{k}"
                inputs.append(net)
            elems.append(integrator(eid, inputs, ic=draw(st.floats(-1, 1)),
                                    k0=draw(st.sampled_from([0.5, 1.0, 10.0]))))
        elif kind == "fgen":
            elems.append(function_generator(eid, pick(), [(-1.0, -0.5), (1.0, 0.5)]))
        else:
            elems.append(reference(eid, draw(signs)))
        nets.append(eid)
    out = draw(st.sampled_from(nets))
    return Netlist(named(elems, **{out: "out"}))


def fold_outputs(netlist):
    """Every element's output at the initial conditions: element_output over evaluation_order."""
    values = {e.id: e.params["ic"] for e in netlist.elements.values() if e.kind is Kind.INTEGRATOR}
    for eid in evaluation_order(netlist):
        e = netlist.elements[eid]
        assert eid not in values or e.kind is Kind.INTEGRATOR
        ins = [values[n] for n in e.inputs]  # inputs all ready
        values[eid] = element_output(e.kind, e.params, ins, state=values.get(eid))
    return values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dag_netlists())
def test_evaluation_order_assigns_every_net_once(netlist):
    assert validate(netlist) == []
    assert set(fold_outputs(netlist)) == set(netlist.elements)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dag_netlists())
def test_generated_nets_equal_element_output_fold(netlist):
    # Name every net so the machine exposes it; the ideal machine at IC
    # must reproduce the reference fold exactly wherever nothing clamps.
    netlist = Netlist(named(list(netlist.elements.values())))
    inst = new_instance(netlist)
    assume(not inst.overloads)
    expected = fold_outputs(netlist)
    assert {eid: inst.value(eid) for eid in netlist.elements} == expected


#: A table whose segment formula, evaluated at its last breakpoint,
#: rounds one ulp past its y of 1.
ONE_ULP_TABLE = [(-0.799741712099096, -0.920759573172591), (0.37378023030454477, 1.0)]


def bounds_netlist():
    half = [(-1.0, -0.5), (1.0, 0.5)]
    elems = [reference("r", -1.0), integrator("i", ["r"]), coefficient("c", "i", 0.25),
             function_generator("f", "i", half), function_generator("g", "c", [(-1.0, 0.5), (1.0, -0.5)]),
             summer("s", ["f", "g"]), multiplier("m", "f", "r"),
             function_generator("u", "i", ONE_ULP_TABLE)]
    return Netlist(elems)


@pytest.mark.parametrize("net, bound", [
    ("i", 1.0), ("r", 1.0), ("c", 1.0), ("s", 1.0), ("m", 0.5),
], ids=["integrator", "reference", "coefficient-on-integrator", "summer-of-half-tables",
        "multiplier-of-half-table-and-reference"])
def test_net_bounds(net, bound):
    netlist = bounds_netlist()
    assert net_bounds(netlist, evaluation_order(netlist))[net] == bound


def test_net_bounds_of_a_table_one_ulp_past_its_breakpoint_exceed_1():
    netlist = bounds_netlist()
    assert net_bounds(netlist, evaluation_order(netlist))["u"] > 1.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dag_netlists())
def test_net_bounds_hold_every_output(netlist):
    # At the initial conditions as built, and with every pot at 1, as an
    # update may set it: each element's output lies within its net's bound.
    bounds = net_bounds(netlist, evaluation_order(netlist))
    full = Netlist([coefficient(e.id, e.inputs[0], 1.0) if e.kind is Kind.COEFFICIENT
                    else e for e in netlist.elements.values()])
    for values in (fold_outputs(netlist), fold_outputs(full)):
        assert list(bounds) == list(netlist.elements)
        assert all(abs(values[eid]) <= bound for eid, bound in bounds.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dag_netlists())
def test_json_round_trip(netlist):
    doc = netlist_to_dict(netlist)
    back = netlist_from_dict(doc)
    assert back.elements == netlist.elements
    assert back.outputs == netlist.outputs


# -- networkx as an independent oracle for ordering and cycle enumeration --

def nx_algebraic_graph(netlist):
    g = nx.DiGraph()
    g.add_nodes_from(netlist.elements)
    for e in netlist.elements.values():
        for nid in e.inputs:
            g.add_edge(nid, e.id)
    g.remove_nodes_from([eid for eid, e in netlist.elements.items() if e.kind is Kind.INTEGRATOR])
    return g


def nx_loops(g):
    return sorted(c[c.index(min(c)):] + c[:c.index(min(c))] for c in nx.simple_cycles(g))


@st.composite
def looped_netlists(draw):
    """dag_netlists plus back-edges: summers and multipliers may read any non-integrator net."""
    elems = list(draw(dag_netlists()).elements.values())
    algebraic = st.sampled_from([e.id for e in elems if e.kind is not Kind.INTEGRATOR])
    for i, e in enumerate(elems):
        if e.kind is Kind.SUMMER:
            elems[i] = summer(e.id, e.inputs + tuple(draw(st.lists(algebraic, max_size=2))))
        elif e.kind is Kind.MULTIPLIER and draw(st.booleans()):
            elems[i] = multiplier(e.id, e.inputs[0], draw(algebraic))
    return Netlist(elems)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dag_netlists())
def test_evaluation_order_matches_networkx(netlist):
    assert evaluation_order(netlist) == list(nx.topological_sort(nx_algebraic_graph(netlist)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(looped_netlists())
def test_algebraic_loops_match_networkx(netlist):
    """evaluation_order raises exactly when networkx finds a cycle, and
    names one of networkx's cycles, rotated to its smallest node."""
    g = nx_algebraic_graph(netlist)
    if nx.is_directed_acyclic_graph(g):
        assert evaluation_order(netlist) == list(nx.topological_sort(g))
    else:
        with pytest.raises(AlgebraicLoopError) as err:
            evaluation_order(netlist)
        [cycle] = err.value.cycles
        assert cycle in nx_loops(g)


@st.composite
def order0_systems(draw):
    """Order-0 equations over random references to one another, a param and a state.

    Returns the program and each equation's references in left-to-right order.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    rank = [f"a{i}" for i in range(n)]  # acyclic unless back-references are drawn
    names = draw(st.permutations(rank))
    cyclic = draw(st.booleans())
    statements = [Decl("param", "p", 0, Num(0.5)), VarDecl("y", 1),
                  *(VarDecl(v, 0) for v in names), TableDecl("f", ((-1.0, -1.0), (1.0, 1.0))),
                  Decl("eq", "y", 1, Ref(names[0])), Decl("init", "y", 0, Num(0.0)),
                  TimeDecl(Num(1.0))]
    refs = {}
    for v in names:
        callees = rank if cyclic else rank[:rank.index(v)]
        refs[v] = draw(st.lists(st.sampled_from(callees + ["p", "y", None]), min_size=1, max_size=4))
        terms = [Num(0.5) if r is None else Ref(r) for r in refs[v]]
        if draw(st.booleans()):  # wrap the last term in a table lookup
            terms[-1] = Call("lut", (Ref("f"), terms[-1]))
        expr = terms[0]
        for t in terms[1:]:
            expr = Bin(draw(st.sampled_from("+*")), expr, t)
        statements.append(Decl("eq", v, 0, expr))
    program, _ = parse(pretty(Program("g", tuple(statements))))  # with source lines
    return program, refs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order0_systems())
def test_algebraic_order_matches_networkx(case):
    """resolve orders the order-0 equations as networkx does, or names one
    of networkx's cycles, rotated to its smallest variable, at that
    variable's equation."""
    program, refs = case
    lines = {s.name: s.line for s in program.statements if isinstance(s, Decl) and s.keyword == "eq"}
    g = nx.DiGraph()
    g.add_nodes_from(refs)
    g.add_edges_from((r, v) for v, rs in refs.items() for r in rs if r in refs)
    system, diags = resolve(program)
    if nx.is_directed_acyclic_graph(g):
        assert diags == []
        assert list(system.order0) == list(nx.topological_sort(g))
    else:
        assert system is None
        [d] = diags
        assert any(str(d) == f"{lines[c[0]]}:1: algebraic cycle among order-0 variables: {c}"
                   for c in nx_loops(g))


def test_json_rejects_unknown_keys():
    doc = netlist_to_dict(fig2_netlist())
    doc["extra"] = 1
    with pytest.raises(StructuralError):
        netlist_from_dict(doc)


def test_json_rejects_unknown_param_keys():
    doc = netlist_to_dict(fig2_netlist())
    doc["elements"][0]["params"]["weird"] = 2
    with pytest.raises(StructuralError):
        netlist_from_dict(doc)


def test_json_rejects_unknown_kind():
    doc = netlist_to_dict(fig2_netlist())
    doc["elements"][0]["kind"] = "comparator"
    with pytest.raises(StructuralError):
        netlist_from_dict(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["elements"][0].pop("id"), "missing key 'id' in element"),
    (lambda d: d["elements"][0].pop("kind"), "missing key 'kind' in element 'ref1'"),
    (lambda d: d.pop("outputs"), "missing key 'outputs' in netlist"),
    (lambda d: d.update(elements={}), "'elements' of netlist must be a list"),
    (lambda d: d["elements"].append(7), "element must be an object"),
    (lambda d: d["elements"][1].update(params=[0.5]), "'params' of element 'a' must be an object"),
    (lambda d: d["elements"][1]["params"].update(alpha="x"), "'alpha' of params of element 'a' must be a number"),
    (lambda d: d["elements"][1].update(inputs="ref1"), "'inputs' of element 'a' must be a list"),
    (lambda d: d["elements"][1].update(id=["a"]), "'id' of element ['a'] must be a string"),
    (lambda d: d["elements"][0].update(name=1), "'name' of element 'ref1' must be a string"),
    (lambda d: d.update(outputs=[None]), "netlist output must be a string"),
])
def test_json_malformed_document_names_the_field(edit, message):
    doc = netlist_to_dict(fig2_netlist())
    edit(doc)
    with pytest.raises(StructuralError, match=re.escape(message)):
        netlist_from_dict(doc)


#: name -> (an edit of fig2's document, the loader's message): a ``nets``
#: table as earlier versions wrote it, or one they rejected, is rejected by
#: its key, and two elements of one name by the name.
NET_TABLE_CASES = {
    "aliased-id": (lambda d: with_old_net_table(d, lambda nets: nets[0].update(id="n1")), NETS_KEY),
    "no-net": (lambda d: with_old_net_table(d, lambda nets: nets.pop(1)), NETS_KEY),
    "as-written": (with_old_net_table, NETS_KEY),
    "shared-name": (lambda d: d["elements"][0].update(name="x"),
                    "elements 'ref1' and 'mul1' are both named 'x'"),
}


@pytest.mark.parametrize("case", NET_TABLE_CASES)
def test_loader_rejects_a_net_table(case):
    edit, message = NET_TABLE_CASES[case]
    doc = netlist_to_dict(fig2_netlist())
    edit(doc)
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        netlist_from_dict(doc)


def test_an_empty_net_name_names_nothing():
    """As validation once skipped it: two elements may both carry the name ''."""
    doc = netlist_to_dict(fig2_netlist())
    doc["elements"][0]["name"] = doc["elements"][1]["name"] = ""
    assert netlist_from_dict(doc).names == {"x": "mul1"}


def test_an_empty_name_is_no_name_in_memory_as_on_file(tmp_path):
    """A netlist built with a name of '' validates as its file does, and a
    second save writes the bytes of the first."""
    netlist = Netlist([Element("r", Kind.REFERENCE, {"constant": 1.0}, (), "")], outputs=("",))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_netlist(netlist, first)
    back = load_netlist(first)
    save_netlist(back, second)
    assert validate(back) == validate(netlist) == [
        Violation("", "missing-output", "output '' names no net")]
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("table", [5, [[0.0]], [[0.0, None], [1.0, 1.0]]])
def test_json_malformed_table_names_the_element(table):
    doc = netlist_to_dict(Netlist(
        [reference("r", 1.0), function_generator("f", "r", [(-1.0, 0.0), (1.0, 1.0)])]))
    doc["elements"][1]["params"]["table"] = table
    with pytest.raises(StructuralError, match="'table' of params of element 'f' must "):
        netlist_from_dict(doc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1, 1), min_size=2, max_size=8, unique=True),
       st.lists(st.floats(-1, 1), min_size=8, max_size=8), st.floats(-2, 2))
def test_table_lookup_agrees_with_numpy(xs, ys, x):
    xs = sorted(xs)
    table = tuple(zip(xs, ys))
    assert element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [x]) == pytest.approx(
        float(np.interp(x, xs, ys[:len(xs)])), abs=1e-12)


def test_table_lookup_of_nan_is_nan():
    # NaN fails every comparison of the lookup; it must not pick a segment
    # past the table's end.
    table = ((-1.0, -1.0), (0.0, 0.5), (1.0, 1.0))
    assert math.isnan(element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [math.nan]))


def test_table_lookup_keeps_a_negative_zero_breakpoint():
    """t - -0.0 turns a -0.0 into +0.0, so the lookup keeps that subtraction."""
    table = ((-1.0, -1.0), (-0.0, -0.0), (1.0, 1.0))
    y = element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [-0.0])
    assert math.copysign(1.0, y) == 1.0


#: Breakpoint coordinates that make the no-ops the lookup leaves out.
_UNIT_GRID = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_UNIT_GRID | st.floats(-1, 1), _UNIT_GRID | st.floats(-1, 1)),
                min_size=2, max_size=5),
       _UNIT_GRID | st.floats(-2, 2))
def test_table_lookup_is_its_segment_formula_bit_for_bit(points, x):
    """Leaving out ``1.0 *``, ``/ 1.0`` and ``t - 0.0`` changes no bit of
    y0 + (y1 - y0) * (t - x0) / (x1 - x0), the sign of a zero included."""
    table = sorted(dict(points).items())
    assume(len(table) > 1)  # dict keeps one of -0.0 and 0.0
    xs = [p[0] for p in table]
    if x <= xs[0] or x >= xs[-1]:
        want = table[0][1] if x <= xs[0] else table[-1][1]
    else:
        (x0, y0), (x1, y1) = table[bisect.bisect_right(xs, x) - 1:][:2]
        want = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    assert repr(element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [x])) == repr(want)


def _netlist(*extra):
    return Netlist([reference("r", 1.0), *extra])


#: name -> (netlist, its one violation): the parameter rules the
#: simulator's range proofs rest on, and the output rules.
VALIDATION_CASES = {
    "params-missing": (_netlist(Element("k", Kind.COEFFICIENT, {}, ("r",))),
                       Violation("k", "param-range", "expected params ['alpha'], got []")),
    "params-extra": (_netlist(Element("i", Kind.INTEGRATOR, {"ic": 0.0, "k0": 1.0, "x": 1.0},
                                      ("r",))),
                     Violation("i", "param-range",
                               "expected params ['ic', 'k0'], got ['ic', 'k0', 'x']")),
    "constant-not-unit": (_netlist(reference("q", 0.5)),
                          Violation("q", "param-range", "constant 0.5 not in {+1, -1}")),
    "one-breakpoint": (_netlist(function_generator("f", "r", [(0.0, 0.0)])),
                       Violation("f", "param-range", "table needs at least 2 breakpoints")),
    "breakpoint-x": (_netlist(function_generator("f", "r", [(-1.0, 0.0), (1.5, 0.0)])),
                     Violation("f", "param-range", "breakpoint (1.5, 0.0) outside [-1, 1]")),
    "breakpoint-y": (_netlist(function_generator("f", "r", [(-1.0, 0.0), (1.0, -2.0)])),
                     Violation("f", "param-range", "breakpoint (1.0, -2.0) outside [-1, 1]")),
    "duplicate-output": (Netlist(named([reference("r", 1.0)], r="y"), ("y", "y")),
                         Violation("", "duplicate-output", "output 'y' is listed 2 times")),
}


@pytest.mark.parametrize("case", VALIDATION_CASES)
def test_validate_reports_the_rule(case):
    netlist, violation = VALIDATION_CASES[case]
    assert validate(netlist) == [violation]


def test_interpolation_midpoints():
    table = ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    assert element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [-0.5]) == pytest.approx(0.5)
    assert element_output(Kind.FUNCTION_GENERATOR, {"table": table}, [0.25]) == pytest.approx(0.75)


@pytest.mark.parametrize("point, kind", [(["-1.0", "0.0"], "str"), ([-1.0, False], "bool")],
                         ids=["string", "boolean"])
def test_json_table_breakpoint_must_be_a_number(point, kind):
    """Each coordinate is a JSON number, as an "ic" must be: float() once
    took "-1.0" for -1 and False for 0."""
    doc = netlist_to_dict(Netlist(
        [reference("r", 1.0), function_generator("f", "r", [(-1.0, 0.0), (1.0, 1.0)])]))
    doc["elements"][1]["params"]["table"][0] = point
    with pytest.raises(StructuralError, match=re.escape(
            f"breakpoint of 'table' of params of element 'f' must be a number, got {kind}")):
        netlist_from_dict(doc)


def test_duplicate_element_ids_rejected():
    with pytest.raises(StructuralError):
        Netlist([reference("r", 1.0), reference("r", -1.0)])


def test_two_elements_of_one_name_rejected_as_the_loader_rejects_them():
    message = NET_TABLE_CASES["shared-name"][1]
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        Netlist(named(list(fig2_netlist().elements.values()), ref1="x"))


def test_malformed_table_is_structural():
    with pytest.raises(StructuralError, match="'table' of params of element 'f' must hold"):
        function_generator("f", "r", [(0.0,), (1.0, 1.0)])


def test_counts_split_inverters():
    counts = fig2_netlist().counts()
    assert counts == {"summer": 1, "inverter": 1, "multiplier": 1, "coefficient": 3, "reference": 1}


def test_nan_param_flagged():
    n = Netlist([reference("r", 1.0), coefficient("k", "r", math.nan)])
    assert any(v.rule == "param-range" for v in validate(n))
