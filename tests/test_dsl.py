import ast
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from apc.dsl import (
    Bin,
    Call,
    Decl,
    Neg,
    Num,
    OutputDecl,
    Program,
    Ref,
    TableDecl,
    TimeDecl,
    VarDecl,
    evaluate,
    parse,
    pretty,
    resolve,
)
from conftest import FIG2_SRC, ROOT, SINE_SRC


def parse_ok(src):
    program, diags = parse(src)
    assert program is not None, diags
    return program


def diags_of(src):
    program, diags = parse(src)
    assert program is None
    return diags


class TestParse:
    def test_sine_equation_lhs(self):
        program = parse_ok(SINE_SRC)
        eqs = [s for s in program.statements if isinstance(s, Decl) and s.keyword == "eq"]
        assert (eqs[0].name, eqs[0].order) == ("y", 2)

    def test_empty_input(self):
        diags = diags_of("")
        assert any("missing system header" in d.message for d in diags)

    def test_missing_header_with_content(self):
        diags = diags_of("var y order 1\n")
        assert any("missing system header" in d.message for d in diags)

    def test_division_rejected(self):
        diags = diags_of("system t\nvar y order 2\neq y'' = y / 2\n")
        assert any("division not supported" in d.message for d in diags)

    def test_runtime_sin_rejected_at_parse(self):
        diags = diags_of("system t\nvar y order 1\neq y' = sin(y)\n")
        assert any("not available at runtime" in d.message for d in diags)

    def test_lut_rejected_in_const_context(self):
        diags = diags_of("system t\nparam p = lut(f, 1)\n")
        assert any("not available in constant" in d.message for d in diags)

    def test_comments_and_blanks(self):
        program = parse_ok("system t  # title\n\n# nothing\nvar y order 1 # order\n")
        assert isinstance(program.statements[0], VarDecl)

    def test_recovers_and_reports_multiple_lines(self):
        diags = diags_of("system t\nvar y order x\neq = 3\n")
        assert len(diags) >= 2

    def test_locations_inside_input(self):
        src = "system t\nvar y order 2\neq y'' = y @ 2\n"
        diags = diags_of(src)
        lines = src.splitlines()
        for d in diags:
            assert 1 <= d.line <= len(lines)
            assert 1 <= d.column <= len(lines[d.line - 1]) + 1

    def test_table_points(self):
        program = parse_ok("system t\ntable f = (-1, -1) (0, 0.5) (1, 1)\n")
        table = program.statements[0]
        assert isinstance(table, TableDecl)
        assert table.points == ((-1.0, -1.0), (0.0, 0.5), (1.0, 1.0))

    def test_output_list(self):
        program = parse_ok("system t\noutput y, y', z\n")
        out = program.statements[0]
        assert out.signals == (("y", 0), ("y", 1), ("z", 0))

    def test_duplicate_system_header(self):
        diags = diags_of("system a\nsystem b\n")
        assert any("duplicate system header" in d.message for d in diags)

    def test_unexpected_character(self):
        diags = diags_of("system t\nvar y order 1\neq y' = y $ y\n")
        assert any("unexpected character" in d.message for d in diags)


class TestResolve:
    def test_sine_init_folding(self):
        system, diags = resolve(parse_ok(SINE_SRC))
        assert diags == []
        assert system.inits[("y", 0)] == math.sin(0.5235987755982988)
        assert system.inits[("y", 1)] == math.cos(0.5235987755982988)
        assert abs(system.inits[("y", 0)] - 0.5) < 1e-12

    def test_missing_init(self):
        src = "system t\nvar y order 2\neq y'' = -y\ninit y = 0\ntime 1\n"
        system, diags = resolve(parse_ok(src))
        assert system is None
        assert any("missing initial condition" in d.message for d in diags)

    def test_highest_derivative_on_rhs_rejected(self):
        src = "system t\nvar y order 2\neq y'' = -y''\ninit y = 0\ninit y' = 0\ntime 1\n"
        system, diags = resolve(parse_ok(src))
        assert system is None
        assert any("derivative order too high" in d.message for d in diags)

    def test_unknown_name(self):
        src = "system t\nvar y order 1\neq y' = z\ninit y = 0\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("unknown name 'z'" in d.message for d in diags)

    def test_non_constant_init(self):
        src = "system t\nvar y order 1\neq y' = -y\ninit y = y\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("must be constant" in d.message or "only params" in d.message for d in diags)

    def test_missing_time(self):
        src = "system t\nvar y order 1\neq y' = -y\ninit y = 0\n"
        _, diags = resolve(parse_ok(src))
        assert any("missing time" in d.message for d in diags)

    def test_negative_horizon(self):
        src = "system t\nvar y order 1\neq y' = -y\ninit y = 0\ntime -1\n"
        _, diags = resolve(parse_ok(src))
        assert any("positive" in d.message for d in diags)

    def test_equation_for_wrong_order(self):
        src = "system t\nvar y order 2\neq y' = -y\ninit y = 0\ninit y' = 0\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("highest derivative" in d.message for d in diags)

    def test_order_zero_program(self):
        system, diags = resolve(parse_ok(FIG2_SRC))
        assert diags == []
        assert system.var_order == {"a": 0, "b": 0, "c": 0, "x": 0}

    def test_order_zero_rejects_inits(self):
        src = "system t\nvar x order 0\neq x = 1\ninit x = 0\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("takes no initial conditions" in d.message for d in diags)

    def test_param_chain_folding(self):
        src = "system t\nparam a = 2\nparam b = a*a - 1\nvar y order 1\neq y' = -y\ninit y = 0\ntime b\n"
        system, diags = resolve(parse_ok(src))
        assert diags == []
        assert system.horizon == 3.0

    def test_default_outputs_are_order_zero_vars(self):
        src = "system t\nvar y order 1\neq y' = -y\ninit y = 0\ntime 1\n"
        system, _ = resolve(parse_ok(src))
        assert system.outputs == (("y", 0),)

    def test_bound_annotations(self):
        src = ("system t\nvar y order 2\neq y'' = -y\ninit y = 0.5\ninit y' = 0\n"
               "bound y = 2\nbound y' = 2.5\ntime 1\n")
        system, diags = resolve(parse_ok(src))
        assert diags == []
        assert system.bounds == {("y", 0): 2.0, ("y", 1): 2.5}

    def test_duplicate_equation(self):
        src = "system t\nvar y order 1\neq y' = -y\neq y' = y\ninit y = 0\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("duplicate equation" in d.message for d in diags)

    def test_name_collision(self):
        src = "system t\nparam y = 1\nvar y order 1\neq y' = -y\ninit y = 0\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("collides" in d.message for d in diags)

    def test_unknown_table(self):
        src = "system t\nvar y order 1\neq y' = lut(g, y)\ninit y = 0\ntime 1\n"
        _, diags = resolve(parse_ok(src))
        assert any("unknown table" in d.message for d in diags)


# --- pretty-print / parse fixpoint over random programs ---------------------

_names = st.sampled_from(["a", "b2", "foo", "x_1", "omega", "yy"])
_numbers = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _exprs(runtime: bool):
    base = [st.builds(Num, _numbers),
            st.builds(Ref, _names, st.integers(0, 3) if runtime else st.just(0))]

    def extend(children):
        out = [
            st.builds(Bin, st.sampled_from("+-*"), children, children),
            st.builds(Neg, children),
        ]
        if runtime:
            out.append(st.builds(lambda n, a: Call("lut", (Ref(n), a)), _names, children))
        else:
            out.append(st.builds(lambda f, a: Call(f, (a,)),
                                 st.sampled_from(["sin", "cos", "exp"]), children))
        return st.one_of(*out)

    return st.recursive(st.one_of(*base), extend, max_leaves=12)


_statements = st.one_of(
    st.builds(Decl, st.just("param"), _names, st.just(0), _exprs(False)),
    st.builds(VarDecl, _names, st.integers(0, 4)),
    st.builds(Decl, st.just("eq"), _names, st.integers(0, 4), _exprs(True)),
    st.builds(Decl, st.sampled_from(["init", "bound"]), _names, st.integers(0, 3), _exprs(False)),
    st.builds(TimeDecl, _exprs(False)),
    st.builds(lambda pts: TableDecl("tbl", tuple(pts)),
              st.lists(st.tuples(st.floats(-1, 1, allow_nan=False),
                                 st.floats(-1, 1, allow_nan=False)), min_size=1, max_size=4)),
    st.builds(lambda sigs: OutputDecl(tuple(sigs)),
              st.lists(st.tuples(_names, st.integers(0, 2)), min_size=1, max_size=3)),
)

_programs = st.builds(lambda stmts: Program("rand", tuple(stmts)),
                      st.lists(_statements, max_size=8))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_programs)
def test_pretty_parse_fixpoint(program):
    text = pretty(program)
    reparsed, diags = parse(text)
    assert reparsed is not None, (text, diags)
    assert reparsed == program, text
    assert pretty(reparsed) == text


def test_evaluate_leaves_each_call_to_its_domain():
    """The walker applies + - * and unary minus to the leaves' values, left
    operand first, and the call hook decides whether an argument is walked."""
    seen = []

    def leaf(e):
        seen.append(e)
        return e.value if isinstance(e, Num) else {"x": 3.0, "y": 5.0}[e.name]

    expr = Bin("-", Neg(Ref("x")), Bin("*", Num(2.0), Call("f", (Ref("y"),))))
    assert evaluate(expr, leaf, lambda e, ev: 10 * ev(e.args[0])) == -3.0 - 2.0 * 50.0
    assert seen == [Ref("x"), Num(2.0), Ref("y")]
    seen.clear()
    assert evaluate(expr, leaf, lambda e, ev: 0.5) == -4.0
    assert seen == [Ref("x"), Num(2.0)]


#: The functions that may dispatch on ``isinstance(..., Bin)`` or ``Neg``: the
#: one value walker and the two structural ones.
BIN_DISPATCH = {"dsl.evaluate", "dsl.children", "dsl._fmt_expr"}


def test_one_value_walker():
    """Every other value of an expression (constants, floats, arrays,
    intervals, the compiler's normal form) comes from ``dsl.evaluate`` and
    its hooks. A method or a nested function counts as its outermost
    definition."""
    found = set()
    for path in sorted((ROOT / "src" / "apc").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and len(node.args) == 2
                        and {"Bin", "Neg"} & {getattr(n, "id", getattr(n, "attr", None))
                                              for n in ast.walk(node.args[1])}):
                    found.add(f"{path.stem}.{top.name}")
    assert sorted(found - BIN_DISPATCH) == []
