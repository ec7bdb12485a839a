"""Frontend for the ODE-description language.

Programs are line oriented; ``#`` starts a comment. Statements:

    system NAME
    param NAME = const-expr
    var NAME order N
    eq NAME'' = expr
    init NAME' = const-expr
    table NAME = (x1, y1) (x2, y2) ...
    bound NAME' = const-expr
    time T_END
    output NAME[, NAME...]

Expressions use ``+ - *`` with the usual precedence, unary minus,
parentheses and ``lut(TABLE, expr)``. Derivatives are written with
apostrophes (``y''``). Division is not part of the language; the only
runtime nonlinearities are multiplication and table lookup. The constant
functions ``sin``, ``cos`` and ``exp`` may appear in ``param``, ``init``
and ``bound`` expressions only and are folded at resolve time.

``param``, ``eq``, ``init`` and ``bound`` share one shape, ``KEYWORD
NAME' = expr``, and parse to one node, Decl; a param's name takes no
apostrophes. Each signal takes at most one ``init`` and one ``bound``.

``parse`` produces an untyped Program, ``resolve`` checks and folds it
into an OdeSystem ready for compilation. Both report problems as
Diagnostic values with source locations instead of raising.

``evaluate`` computes every value of an expression, in the domain its
hooks choose: folded constants, floats, numpy arrays, intervals, and the
compiler's normal forms.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .record import Frozen

KEYWORDS = {"system", "param", "var", "order", "eq", "init", "table", "time", "output", "bound"}
CONST_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


class Diagnostic(Frozen):
    __slots__ = ("line", "column", "message")

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


# --- AST ------------------------------------------------------------------
# Locations never take part in equality or hashing so that a
# pretty-printed and re-parsed tree compares equal to the original.

class Expr(Frozen):
    __slots__ = ()
    _uncompared = ("line", "column")
    _defaults = {"line": 0, "column": 0}


class Num(Expr):
    __slots__ = ("value", "line", "column")


class Ref(Expr):
    """A name with a derivative order: ``y''`` is Ref("y", 2)."""

    __slots__ = ("name", "order", "line", "column")
    _defaults = {"order": 0, **Expr._defaults}


class Bin(Expr):
    __slots__ = ("op", "left", "right", "line", "column")


class Neg(Expr):
    __slots__ = ("operand", "line", "column")


class Call(Expr):
    __slots__ = ("func", "args", "line", "column")


class Stmt(Frozen):
    __slots__ = ()
    _uncompared = ("line",)
    _defaults = {"line": 0}


class Decl(Stmt):
    """A ``param``, ``eq``, ``init`` or ``bound`` line, ``KEYWORD NAME' = expr``.

    ``keyword`` is the statement's keyword and ``order`` the number of
    apostrophes on the name, always 0 for a param.
    """

    __slots__ = ("keyword", "name", "order", "expr", "line")


class VarDecl(Stmt):
    __slots__ = ("name", "order", "line")


class TableDecl(Stmt):
    __slots__ = ("name", "points", "line")


class TimeDecl(Stmt):
    __slots__ = ("t_end", "line")


class OutputDecl(Stmt):
    __slots__ = ("signals", "line")  # signals: of (name, order)


class Program(Frozen):
    """A parsed program; ``line`` is its ``system`` header's, a location only."""

    __slots__ = ("name", "statements", "line")
    _uncompared = ("line",)
    _defaults = {"line": 1}


def signal_name(name: str, order: int) -> str:
    return name + "'" * order


def _derivative_name(name: str, order: int) -> str:
    """``signal_name``, or ``y^(N)`` for an order too high to spell out, so
    that a diagnostic never outgrows the digits of a ``var`` declaration."""
    return signal_name(name, order) if order <= 8 else f"{name}^({order})"


def children(expr: Expr) -> tuple:
    """Direct subexpressions; a ``lut`` call's are its arguments after the table name."""
    if isinstance(expr, Bin):
        return (expr.left, expr.right)
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, Call):
        return expr.args[1:] if expr.func == "lut" else expr.args
    return ()


def walk(expr: Expr):
    """``expr`` and all its subexpressions, depth first, parents before children."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def evaluate(expr: Expr, leaf, call):
    """The value of ``expr`` in the domain its hooks define: Python's ``+``,
    ``-``, ``*`` and unary minus applied, left operand first, to what
    ``leaf(node)`` returns for each Num and Ref; each Call is
    ``call(node, ev)``, where ``ev`` evaluates a subexpression with the
    same hooks, so the domain decides which arguments it evaluates."""
    if isinstance(expr, Bin):
        left, right = evaluate(expr.left, leaf, call), evaluate(expr.right, leaf, call)
        return left + right if expr.op == "+" else left - right if expr.op == "-" else left * right
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, leaf, call)
    if isinstance(expr, Call):
        return call(expr, lambda e: evaluate(e, leaf, call))
    return leaf(expr)


# --- Lexer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<op>[+\-*/(),=])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(Frozen):
    __slots__ = ("kind", "text", "line", "column")  # kind: num | ident | keyword | op | eol


def _lex_line(text: str, lineno: int, diags: list) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        col = m.start() + 1
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            diags.append(Diagnostic(lineno, col, f"unexpected character {m.group()!r}"))
            continue
        if m.lastgroup == "ident":
            base = m.group().rstrip("'")
            kind = "keyword" if base == m.group() and base in KEYWORDS else "ident"
            tokens.append(Token(kind, m.group(), lineno, col))
        else:
            tokens.append(Token(m.lastgroup, m.group(), lineno, col))
    tokens.append(Token("eol", "", lineno, len(text) + 1))
    return tokens


# --- Parser ---------------------------------------------------------------

class _LineParser:
    """Recursive-descent parser over one statement line."""

    def __init__(self, tokens: list[Token], diags: list):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eol":
            self.pos += 1
        return tok

    def error(self, message: str):
        self.diags.append(Diagnostic(self.cur.line, self.cur.column, message))
        raise _Bail()

    def expect_op(self, op: str):
        if self.cur.kind == "op" and self.cur.text == op:
            return self.advance()
        self.error(f"expected {op!r}")

    def expect_eol(self):
        if self.cur.kind != "eol":
            self.error(f"unexpected trailing input {self.cur.text!r}")

    def ident(self, allow_primes=False):
        tok = self.cur
        if tok.kind != "ident":
            self.error("expected a name")
        self.advance()
        base = tok.text.rstrip("'")
        order = len(tok.text) - len(base)
        if order and not allow_primes:
            self.error("derivative marks are not allowed here")
        return base, order, tok

    def number(self) -> float:
        neg = False
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            neg = True
        if self.cur.kind != "num":
            self.error("expected a number")
        v = float(self.advance().text)
        return -v if neg else v

    # expression grammar: sum -> term (('+'|'-') term)*
    #                     term -> factor ('*' factor)*
    #                     factor -> '-' factor | atom
    #                     atom -> number | name | call '(' args ')' | '(' sum ')'
    def expr(self) -> Expr:
        left = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance()
            right = self.term()
            left = Bin(op.text, left, right, line=op.line, column=op.column)
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance()
            if op.text == "/":
                self.diags.append(Diagnostic(op.line, op.column, "division not supported"))
                raise _Bail()
            right = self.factor()
            left = Bin("*", left, right, line=op.line, column=op.column)
        return left

    def factor(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            tok = self.advance()
            return Neg(self.factor(), line=tok.line, column=tok.column)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), line=tok.line, column=tok.column)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            base, order, _ = self.ident(allow_primes=True)
            if self.cur.kind == "op" and self.cur.text == "(":
                if order:
                    self.error("derivative marks are not allowed on function names")
                self.advance()
                args = [self.expr()]
                while self.cur.kind == "op" and self.cur.text == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                return Call(base, tuple(args), line=tok.line, column=tok.column)
            return Ref(base, order, line=tok.line, column=tok.column)
        if tok.kind == "op" and tok.text == "/":
            self.diags.append(Diagnostic(tok.line, tok.column, "division not supported"))
            raise _Bail()
        self.error(f"expected an expression, got {tok.text or 'end of line'!r}")


class _Bail(Exception):
    """Abandon the current line after recording a diagnostic."""


def _reject_calls(expr: Expr, runtime: bool, diags: list):
    """Grammar context check: lut only at runtime, sin/cos/exp only in constants."""
    ok = False
    for call in (e for e in walk(expr) if isinstance(e, Call)):
        if runtime and call.func in CONST_FUNCS:
            diags.append(Diagnostic(call.line, call.column,
                                    f"{call.func} is a constant function and not available at runtime"))
        elif not runtime and call.func == "lut":
            diags.append(Diagnostic(call.line, call.column,
                                    "lut is not available in constant expressions"))
        else:
            continue
        ok = True
    if ok:
        raise _Bail()


def _parse_statement(p: _LineParser) -> Stmt | None:
    tok = p.cur
    if tok.kind != "keyword":
        p.error(f"expected a statement keyword, got {tok.text!r}")
    p.advance()
    kw = tok.text

    if kw == "system":
        name, _, _ = p.ident()
        p.expect_eol()
        return ("system", name, tok.line)

    if kw in ("param", "eq", "init", "bound"):
        name, order, _ = p.ident(allow_primes=kw != "param")
        p.expect_op("=")
        expr = p.expr()
        p.expect_eol()
        _reject_calls(expr, runtime=kw == "eq", diags=p.diags)
        return Decl(kw, name, order, expr, line=tok.line)

    if kw == "var":
        name, _, _ = p.ident()
        if not (p.cur.kind == "keyword" and p.cur.text == "order"):
            p.error("expected 'order'")
        p.advance()
        if p.cur.kind != "num" or not p.cur.text.isdigit():
            p.error("expected a non-negative integer order")
        order = int(p.advance().text)
        p.expect_eol()
        return VarDecl(name, order, line=tok.line)

    if kw == "table":
        name, _, _ = p.ident()
        p.expect_op("=")
        points = []
        while not (p.cur.kind == "eol"):
            p.expect_op("(")
            x = p.number()
            p.expect_op(",")
            y = p.number()
            p.expect_op(")")
            points.append((x, y))
        if not points:
            p.error("table needs at least one breakpoint")
        return TableDecl(name, tuple(points), line=tok.line)

    if kw == "time":
        expr = p.expr()
        p.expect_eol()
        _reject_calls(expr, runtime=False, diags=p.diags)
        return TimeDecl(expr, line=tok.line)

    if kw == "output":
        signals = []
        name, order, _ = p.ident(allow_primes=True)
        signals.append((name, order))
        while p.cur.kind == "op" and p.cur.text == ",":
            p.advance()
            name, order, _ = p.ident(allow_primes=True)
            signals.append((name, order))
        p.expect_eol()
        return OutputDecl(tuple(signals), line=tok.line)

    p.error(f"statement {kw!r} is not valid here")


def parse(text: str) -> tuple[Program | None, list[Diagnostic]]:
    """Parse source text into a Program, or report diagnostics.

    Parsing is line oriented and recovers at line boundaries, so a single
    bad line yields one diagnostic without hiding later errors. Returns
    (program, []) on success or (None, diagnostics) on failure.
    """
    diags: list[Diagnostic] = []
    system_name = None
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _lex_line(line, lineno, diags)
        if len(tokens) == 1:  # only eol; lex errors already recorded
            continue
        p = _LineParser(tokens, diags)
        try:
            stmt = _parse_statement(p)
        except _Bail:
            continue
        if isinstance(stmt, tuple) and stmt[0] == "system":
            if system_name is None and not statements:
                system_name, header_line = stmt[1], stmt[2]
            elif system_name == "?":  # statements came before it
                diags.append(Diagnostic(stmt[2], 1, "system header must come first"))
            else:
                diags.append(Diagnostic(stmt[2], 1, "duplicate system header"))
        elif system_name is None:
            diags.append(Diagnostic(tokens[0].line, tokens[0].column, "missing system header"))
            system_name = "?"  # report once, keep collecting other errors
            statements.append(stmt)
        else:
            statements.append(stmt)
    if system_name is None:
        diags.append(Diagnostic(1, 1, "missing system header"))
    if diags:
        return None, diags
    return Program(system_name, tuple(statements), header_line), []


# --- Pretty printer -------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2}


def _fmt_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Ref):
        return signal_name(e.name, e.order)
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_fmt_expr(a) for a in e.args)})"
    if isinstance(e, Neg):
        s = "-" + _fmt_expr(e.operand, 3)
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        s = f"{_fmt_expr(e.left, prec)} {e.op} {_fmt_expr(e.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"not an expression: {e!r}")


def pretty(program: Program) -> str:
    """Render a Program back to source text; re-parsing is a fixpoint."""
    lines = [f"system {program.name}"]
    for s in program.statements:
        if isinstance(s, Decl):
            lines.append(f"{s.keyword} {signal_name(s.name, s.order)} = {_fmt_expr(s.expr)}")
        elif isinstance(s, VarDecl):
            lines.append(f"var {s.name} order {s.order}")
        elif isinstance(s, TableDecl):
            pts = " ".join(f"({repr(x)}, {repr(y)})" for x, y in s.points)
            lines.append(f"table {s.name} = {pts}")
        elif isinstance(s, TimeDecl):
            lines.append(f"time {_fmt_expr(s.t_end)}")
        elif isinstance(s, OutputDecl):
            lines.append("output " + ", ".join(signal_name(n, o) for n, o in s.signals))
        else:
            raise TypeError(f"not a statement: {s!r}")
    return "\n".join(lines) + "\n"


# --- Resolver -------------------------------------------------------------

@dataclass(frozen=True)
class OdeSystem:
    """A resolved, explicitly solvable ODE system.

    ``equations[v]`` is the right-hand side for the highest derivative of
    ``v``; every Ref in it names a param, a table (inside lut) or a
    derivative strictly below the owning variable's order. ``inits`` maps
    (var, order) to folded numeric initial values for orders 0..n-1.
    ``order0`` lists the order-0 variables so that each equation reads
    only earlier ones: they form no cycle.
    """

    name: str
    params: dict
    var_order: dict
    equations: dict
    inits: dict
    tables: dict
    horizon: float
    outputs: tuple
    bounds: dict
    order0: tuple

    def signals(self):
        """All (var, order) pairs up to and including the highest derivative."""
        out = []
        for v, n in self.var_order.items():
            out.extend((v, k) for k in range(n + 1))
        return out


class _Resolver:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list[Diagnostic] = []

    def fail(self, line, column, message):
        self.diags.append(Diagnostic(line, column, message))

    def fold_const(self, e: Expr, params: dict, what: str) -> float | None:
        """Evaluate a compile-time constant expression, or diagnose: each
        name and call that cannot fold is diagnosed and folds to NaN, so
        the rest is still checked. A value that is not finite (an
        overflow, inf - inf) is diagnosed once, at ``e``."""

        def leaf(node):
            if isinstance(node, Num):
                return node.value
            if node.order:
                self.fail(node.line, node.column, f"{what} must be constant; derivatives are not")
            elif node.name in params:
                return params[node.name]
            else:
                self.fail(node.line, node.column,
                          f"unknown name {node.name!r} in {what} (only params may be used)")
            return math.nan

        def call(node, ev):
            if node.func not in CONST_FUNCS:
                self.fail(node.line, node.column, f"function {node.func!r} is not a constant function")
            elif len(node.args) != 1:
                self.fail(node.line, node.column, f"{node.func} takes one argument")
            else:
                try:
                    return CONST_FUNCS[node.func](ev(node.args[0]))
                except (OverflowError, ValueError):  # exp overflows; sin, cos of an infinity
                    pass
            return math.nan

        diagnosed = len(self.diags)
        v = evaluate(e, leaf, call)
        if len(self.diags) == diagnosed and not math.isfinite(v):
            self.fail(e.line, e.column, f"{what} does not fold to a finite number")
        return v if len(self.diags) == diagnosed else None

    def check_rhs(self, expr: Expr, var_order: dict, params: dict, tables: dict):
        """Validate a runtime expression: name binding and derivative orders."""
        for e in walk(expr):
            if isinstance(e, Ref):
                if e.name in var_order:
                    n = var_order[e.name]
                    if e.order >= n and n > 0:
                        self.fail(e.line, e.column,
                                  f"derivative order too high: {signal_name(e.name, e.order)} "
                                  f"(highest usable order of {e.name!r} is {n - 1})")
                    elif n == 0 and e.order > 0:
                        self.fail(e.line, e.column, f"{e.name!r} has order 0 and no derivatives")
                elif e.name in params:
                    if e.order:
                        self.fail(e.line, e.column, f"param {e.name!r} has no derivatives")
                else:
                    self.fail(e.line, e.column, f"unknown name {e.name!r}")
            elif isinstance(e, Call) and e.func == "lut":
                tab = e.args[0]
                if len(e.args) != 2:
                    self.fail(e.line, e.column, "lut takes (table, expr)")
                elif not isinstance(tab, Ref) or tab.order != 0:
                    self.fail(e.line, e.column, "first lut argument must be a table name")
                elif tab.name not in tables:
                    self.fail(tab.line, tab.column, f"unknown table {tab.name!r}")
            elif isinstance(e, Call):
                self.fail(e.line, e.column, f"unknown function {e.func!r}")

    def order_zeros(self, var_order: dict, equations: dict, eq_line: dict) -> tuple:
        """The order-0 variables with equations, each after those its
        equation reads: graphlib's order, which takes the variables that
        read none in declaration order, then each one's readers. A cycle
        among them is diagnosed once, at the equation of its smallest
        variable, and the order is empty."""
        zeros = {v: () for v, n in var_order.items() if n == 0 and v in equations}
        sorter = TopologicalSorter(zeros)
        for v in zeros:
            refs = (e.name for e in walk(equations[v]) if isinstance(e, Ref) and not e.order)
            sorter.add(v, *dict.fromkeys(r for r in refs if r in zeros))
        try:
            return tuple(sorter.static_order())
        except CycleError as err:
            cycle = err.args[1][:-1]
            i = cycle.index(min(cycle))
            cycle = cycle[i:] + cycle[:i]
            self.fail(eq_line[cycle[0]], 1, f"algebraic cycle among order-0 variables: {cycle}")
            return ()

    def run(self) -> OdeSystem | None:
        prog = self.program
        params: dict[str, float] = {}
        var_order: dict[str, int] = {}
        var_line: dict[str, int] = {}
        tables: dict[str, tuple] = {}
        equations: dict[str, Expr] = {}
        eq_line: dict[str, int] = {}
        inits: dict[tuple, float] = {}
        bounds: dict[tuple, float] = {}
        horizon = None
        time_line = None
        outputs = None

        def declare(name, line, kind):
            for space, label in ((params, "param"), (var_order, "var"), (tables, "table")):
                if name in space:
                    self.fail(line, 1, f"{kind} {name!r} collides with {label} {name!r}")
                    return False
            return True

        for s in prog.statements:
            if isinstance(s, Decl) and s.keyword == "param":
                if declare(s.name, s.line, "param"):
                    v = self.fold_const(s.expr, params, "param value")
                    params[s.name] = 0.0 if v is None else v
            elif isinstance(s, VarDecl):
                if declare(s.name, s.line, "var"):
                    var_order[s.name] = s.order
                    var_line[s.name] = s.line
            elif isinstance(s, TableDecl):
                if declare(s.name, s.line, "table"):
                    xs = [p[0] for p in s.points]
                    if any(b <= a for a, b in zip(xs, xs[1:])):
                        self.fail(s.line, 1, f"table {s.name!r} x values must be strictly increasing")
                    if any(not (-1 <= x <= 1 and -1 <= y <= 1) for x, y in s.points):
                        self.fail(s.line, 1, f"table {s.name!r} breakpoints must lie in [-1, 1]")
                    if len(s.points) < 2:
                        self.fail(s.line, 1, f"table {s.name!r} needs at least 2 breakpoints")
                    tables[s.name] = tuple(s.points)
            elif isinstance(s, TimeDecl):
                if time_line is not None:
                    self.fail(s.line, 1, "duplicate time statement")
                time_line = s.line
                horizon = self.fold_const(s.t_end, params, "time horizon")
            elif isinstance(s, OutputDecl):
                if outputs is not None:
                    self.fail(s.line, 1, "duplicate output statement")
                outputs = s

        nouns = {"eq": "equation", "init": "initial condition", "bound": "bound"}
        for s in prog.statements:
            if not isinstance(s, Decl) or s.keyword == "param":
                continue
            if s.name not in var_order:
                self.fail(s.line, 1, f"{nouns[s.keyword]} for undeclared variable {s.name!r}")
                continue
            n = var_order[s.name]
            key = (s.name, s.order)
            if s.keyword == "eq":
                if s.name in equations:
                    self.fail(s.line, 1, f"duplicate equation for {s.name!r}")
                elif s.order != n:
                    self.fail(s.line, 1, f"equation must define the highest derivative "
                                         f"{_derivative_name(s.name, n)}, "
                                         f"got {_derivative_name(s.name, s.order)}")
                else:
                    self.check_rhs(s.expr, var_order, params, tables)
                    equations[s.name] = s.expr
                    eq_line[s.name] = s.line
            elif s.keyword == "init":
                if n == 0:
                    self.fail(s.line, 1, f"{s.name!r} has order 0 and takes no initial conditions")
                elif s.order >= n:
                    self.fail(s.line, 1, f"initial condition order too high for {s.name!r}")
                elif key in inits:
                    self.fail(s.line, 1, f"duplicate initial condition for {signal_name(*key)}")
                else:
                    v = self.fold_const(s.expr, params, "initial condition")
                    inits[key] = 0.0 if v is None else v  # diagnosed already if None
            elif s.order > n:
                self.fail(s.line, 1, f"bound order too high for {s.name!r}")
            elif key in bounds:
                self.fail(s.line, 1, f"duplicate bound for {signal_name(*key)}")
            else:
                v = self.fold_const(s.expr, params, "bound")
                if v is not None and v <= 0:
                    self.fail(s.line, 1, "bounds must be positive")
                bounds[key] = v  # even when rejected, so that a second bound is a duplicate

        order0 = self.order_zeros(var_order, equations, eq_line)
        given = Counter(v for v, _ in inits)
        for v, n in var_order.items():
            if v not in equations:
                self.fail(var_line[v], 1, f"missing equation for {v!r}")
            missing = n - given[v]  # one diagnostic, never a loop over range(n)
            if missing:
                k = min(k for k in range(given[v] + 1) if (v, k) not in inits)
                more = f" (and {missing - 1} more)" if missing > 1 else ""
                self.fail(var_line[v], 1, f"missing initial condition for {signal_name(v, k)}{more}")

        if time_line is None:
            self.fail(prog.line, 1, "missing time statement")
        elif horizon is not None and horizon <= 0:
            self.fail(time_line, 1, "time horizon must be positive")

        if outputs is None:
            out_signals = tuple((v, 0) for v in var_order)
        else:
            out_signals = outputs.signals
            seen = set()
            for name, order in out_signals:
                if (name, order) in seen:
                    self.fail(outputs.line, 1, f"duplicate output {signal_name(name, order)!r}")
                seen.add((name, order))
                if name not in var_order:
                    self.fail(outputs.line, 1, f"output {signal_name(name, order)!r} is not a variable")
                elif order > var_order[name]:
                    self.fail(outputs.line, 1, f"output {signal_name(name, order)!r} exceeds usable order")

        if not var_order:
            self.fail(prog.line, 1, "program declares no variables")

        if self.diags:
            return None
        return OdeSystem(
            name=prog.name,
            params=params,
            var_order=var_order,
            equations=equations,
            inits=inits,
            tables=tables,
            horizon=horizon,
            outputs=out_signals,
            bounds=bounds,
            order0=order0,
        )


def resolve(program: Program) -> tuple[OdeSystem | None, list[Diagnostic]]:
    """Bind names, fold constants, check orders and order the order-0
    equations; see OdeSystem."""
    r = _Resolver(program)
    system = r.run()
    return system, sorted(r.diags, key=lambda d: (d.line, d.column))


def load_program(path) -> tuple[Program | None, list[Diagnostic]]:
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not source text
        return parse(fh.read())
