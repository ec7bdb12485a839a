import ast
import copy
import csv
import gc
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time

import pytest

from apc import cli
from apc.cli import main
from apc.machine import (
    Netlist,
    StructuralError,
    coefficient,
    function_generator,
    integrator,
    reference,
    save_netlist,
    summer,
)
from apc.simulator import OverloadError
from conftest import (
    DECAY_LUT_SRC,
    FIG2_SRC,
    NETS_KEY,
    ROOT,
    SINE5_SRC,
    SINE_SRC,
    UNSTABLE_SRC,
    VCO_SRC,
    named,
    src_env,
    with_old_net_table,
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def compiled(workdir, src, name="prog", extra=()):
    source = write(workdir / f"{name}.apc", src)
    out = workdir / f"{name}.json"
    assert main(["compile", source, "-o", str(out), *extra]) == 0
    return out


#: A valid program; most cases below add one line to it.
OK_SRC = "system s\nvar y order 1\neq y' = -y\ninit y = 0.5\ntime 1\n"
#: A program whose equation comes last, after a table f.
LUT_SRC = "system s\nvar y order 1\ntable f = (-1, -1) (1, 1)\ninit y = 0\ntime 1\neq y' = "

#: name -> (source, exit code, stderr lines after the file name): every
#: diagnostic ``apc check`` prints for the source.
DIAGNOSTICS = {
    # parse errors, exit 2
    "header-after-statements": ("var y order 1\nsystem s\n", 2,
                                ["1:1: missing system header", "2:1: system header must come first"]),
    "keyword-out-of-place": (OK_SRC + "order 2\n", 2, ["6:7: statement 'order' is not valid here"]),
    "var-without-order": ("system s\nvar y 1\n", 2, ["2:7: expected 'order'"]),
    "no-keyword": (OK_SRC + "y' = 1\n", 2, ["6:1: expected a statement keyword, got \"y'\""]),
    "slash-first": ("system s\nvar y order 1\neq y' = / y\n", 2, ["3:9: division not supported"]),
    "primes-on-function": ("system s\nvar y order 1\neq y' = f'(y)\n", 2,
                           ["3:11: derivative marks are not allowed on function names"]),
    "primes-on-param": ("system s\nparam k' = 1\n", 2, ["2:10: derivative marks are not allowed here"]),
    "unclosed-paren": ("system s\nvar y order 1\neq y' = (y\n", 2, ["3:11: expected ')'"]),
    "empty-rhs": ("system s\nvar y order 1\neq y' =\n", 2,
                  ["3:8: expected an expression, got 'end of line'"]),
    "table-not-a-number": (OK_SRC + "table f = (a, 1)\n", 2, ["6:12: expected a number"]),
    "table-no-points": (OK_SRC + "table f =\n", 2, ["6:10: table needs at least one breakpoint"]),
    "bad-character-only": (OK_SRC + "@\n", 2, ["6:1: unexpected character '@'"]),
    "sin-at-runtime": (LUT_SRC + "lut(f, sin(y))\n", 2,
                       ["6:16: sin is a constant function and not available at runtime"]),
    # resolve errors, exit 3
    "duplicate-time": (OK_SRC + "time 2\n", 3, ["6:1: duplicate time statement"]),
    "duplicate-output": (OK_SRC + "output y\noutput y\n", 3, ["7:1: duplicate output statement"]),
    "output-twice": (OK_SRC + "output y, y\n", 3, ["6:1: duplicate output 'y'"]),
    "output-unknown": (OK_SRC + "output z\n", 3, ["6:1: output 'z' is not a variable"]),
    "output-order": (OK_SRC + "output y''\n", 3, ["6:1: output \"y''\" exceeds usable order"]),
    "bound-undeclared": (OK_SRC + "bound z = 1\n", 3, ["6:1: bound for undeclared variable 'z'"]),
    "bound-order": (OK_SRC + "bound y'' = 1\n", 3, ["6:1: bound order too high for 'y'"]),
    "bound-negative": (OK_SRC + "bound y = -1\n", 3, ["6:1: bounds must be positive"]),
    "bound-twice": (OK_SRC + "bound y = 0.1\nbound y = 2\n", 3, ["7:1: duplicate bound for y"]),
    "bound-derivative": (OK_SRC + "param k = 1\nbound y = k'\n", 3,
                         ["7:11: bound must be constant; derivatives are not"]),
    "init-order": (OK_SRC + "init y' = 0\n", 3, ["6:1: initial condition order too high for 'y'"]),
    "init-twice": (OK_SRC + "init y = 0.25\n", 3, ["6:1: duplicate initial condition for y"]),
    "lut-one-argument": (LUT_SRC + "lut(f)\n", 3, ["6:9: lut takes (table, expr)"]),
    "lut-number-table": (LUT_SRC + "lut(0.5, y)\n", 3,
                         ["6:9: first lut argument must be a table name"]),
    "unknown-function": (LUT_SRC + "foo(y)\n", 3, ["6:9: unknown function 'foo'"]),
    "non-constant-function": (OK_SRC + "param k = foo(1)\n", 3,
                              ["6:11: function 'foo' is not a constant function"]),
    "sin-two-arguments": (OK_SRC + "param k = sin(1, 2)\n", 3, ["6:11: sin takes one argument"]),
    "exp-overflow": (OK_SRC + "param k = exp(1000)\n", 3,
                     ["6:11: param value does not fold to a finite number"]),
    "unknown-in-sum": (OK_SRC + "param k = 1 + z\n", 3,
                       ["6:15: unknown name 'z' in param value (only params may be used)"]),
    "unknown-in-call": (OK_SRC + "param k = sin(z)\n", 3,
                        ["6:15: unknown name 'z' in param value (only params may be used)"]),
    # every unknown name of a sum; a call that cannot fold hides its arguments
    "two-unknowns-in-sum": (OK_SRC + "param k = z + w\n", 3,
                            ["6:11: unknown name 'z' in param value (only params may be used)",
                             "6:15: unknown name 'w' in param value (only params may be used)"]),
    "unknown-after-bad-call": (OK_SRC + "param k = foo(z) + w\n", 3,
                               ["6:11: function 'foo' is not a constant function",
                                "6:20: unknown name 'w' in param value (only params may be used)"]),
    "param-derivative": ("system s\nparam k = 1\nvar y order 1\neq y' = -k'\ninit y = 0\ntime 1\n",
                         3, ["4:10: param 'k' has no derivatives"]),
    "order-0-derivative": ("system s\nvar x order 0\neq x = 0.5\nvar y order 1\neq y' = -x'\n"
                           "init y = 0\ntime 1\n", 3, ["5:10: 'x' has order 0 and no derivatives"]),
    "table-order": (OK_SRC + "table f = (0, 0) (0, 1)\n", 3,
                    ["6:1: table 'f' x values must be strictly increasing"]),
    "table-range": (OK_SRC + "table f = (-2, 0) (1, 1)\n", 3,
                    ["6:1: table 'f' breakpoints must lie in [-1, 1]"]),
    "table-one-point": (OK_SRC + "table f = (0, 0)\n", 3,
                        ["6:1: table 'f' needs at least 2 breakpoints"]),
    # program-wide checks, located at the var, time or system line they concern
    "missing-equation": ("system s\nparam k = 1\nvar y order 1\ninit y = 0.5\ntime 1\n", 3,
                         ["3:1: missing equation for 'y'"]),
    "missing-init": ("system s\nvar x order 1\neq x' = 0\ninit x = 0\nvar y order 2\n"
                     "eq y'' = -y\ninit y = 0\ntime 1\n", 3,
                     ["5:1: missing initial condition for y'"]),
    "horizon-not-positive": ("system s\nvar y order 1\neq y' = -y\ninit y = 0.5\nparam k = 1\n"
                             "time -1\n", 3, ["6:1: time horizon must be positive"]),
    "missing-time": ("# header below\n\nsystem s\nvar y order 1\neq y' = -y\ninit y = 0.5\n", 3,
                     ["3:1: missing time statement"]),
    "no-variables": ("# header below\nsystem s\ntime 1\n", 3,
                     ["2:1: program declares no variables"]),
    # an algebraic loop, located at the equation of its smallest variable
    "algebraic-cycle": ("system s\nvar z order 1\neq z' = -z\ninit z = 0.5\nvar x order 0\n"
                        "var y order 0\neq y = 0.5*x + z\neq x = 0.5*y\ntime 1\n", 3,
                        ["8:1: algebraic cycle among order-0 variables: ['x', 'y']"]),
    "algebraic-self-loop": ("system s\nvar x order 0\neq x = 0.5*x\ntime 1\n", 3,
                            ["3:1: algebraic cycle among order-0 variables: ['x']"]),
}


class TestCheck:
    @pytest.mark.parametrize("case", DIAGNOSTICS)
    def test_diagnostic(self, workdir, capsys, case):
        text, code, lines = DIAGNOSTICS[case]
        src = write(workdir / "bad.apc", text)
        assert main(["check", src]) == code
        assert capsys.readouterr().err == "".join(f"{src}:{line}\n" for line in lines)

    def test_valid(self, workdir):
        src = write(workdir / "ok.apc", SINE_SRC)
        assert main(["check", src]) == 0

    def test_syntax_error_exits_2(self, workdir, capsys):
        src = write(workdir / "bad.apc", "system t\nvar y order 2\neq y'' = y / 2\n")
        assert main(["check", src]) == 2
        assert "division not supported" in capsys.readouterr().err

    def test_missing_init_exits_3(self, workdir):
        src = write(workdir / "bad.apc", "system t\nvar y order 2\neq y'' = -y\ninit y = 0\ntime 1\n")
        assert main(["check", src]) == 3

    def test_missing_file_exits_1(self, workdir, capsys):
        assert main(["check", "nope.apc"]) == 1
        assert capsys.readouterr().err == (
            "apc: nope.apc: [Errno 2] No such file or directory: 'nope.apc'\n")

    @pytest.mark.parametrize("command", ["check", "compile"])
    def test_undecodable_source_exits_1(self, workdir, capsys, command):
        """A source that is not UTF-8 once ended in a UnicodeDecodeError traceback."""
        (workdir / "bad.apc").write_bytes(b"system s\nvar y order 1\neq y\xff = -y\n")
        assert main([command, "bad.apc"]) == 1
        assert capsys.readouterr().err == ("apc: bad.apc: 'utf-8' codec can't decode byte 0xff "
                                           "in position 27: invalid start byte\n")
        assert not (workdir / "bad.json").exists()

    def test_byte_order_mark_is_not_source(self, workdir):
        """A UTF-8 byte-order mark once exited 2 as an unexpected character."""
        text = (ROOT / "programs" / "sine.apc").read_bytes()
        (workdir / "plain.apc").write_bytes(text)
        (workdir / "bom.apc").write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["check", "bom.apc"]) == 0
        for name in ("plain", "bom"):
            assert main(["compile", f"{name}.apc"]) == 0
        for name in ("bom.json", "bom.map.json"):
            assert (workdir / name).read_bytes() == (workdir / f"plain{name[3:]}").read_bytes()

    @pytest.mark.parametrize("order, lowest", [("200000", "y^(200000)"),
                                               ("1000000000000", "y^(1000000000000)")])
    def test_huge_order_exits_3_in_bounded_memory(self, workdir, order, lowest):
        """Diagnostics stay the size of the source, whatever the order. A
        separate process under a 1 GiB address-space limit: one diagnostic
        per missing order, each spelling out its apostrophes, once exhausted
        the machine's memory."""
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = write(workdir / "huge.apc", f"system t\nvar y order {order}\neq y = 0\ntime 1\n")
        proc = subprocess.run([sys.executable, "-m", "apc", "check", src], env=src_env(),
                              capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        assert f"missing initial condition for y (and {int(order) - 1} more)" in proc.stderr
        assert f"highest derivative {lowest}, got y\n" in proc.stderr


class TestCompile:
    def test_sine_report_and_files(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine")
        captured = capsys.readouterr().out
        assert "integrators: 2" in captured
        assert out.exists()
        assert (workdir / "sine.map.json").exists()
        doc = json.loads(out.read_text())
        assert set(doc) == {"elements", "outputs"}
        assert [e.get("name") for e in doc["elements"]].count("y") == 1

    def test_fig2_report(self, workdir, capsys):
        compiled(workdir, FIG2_SRC, "fig2")
        captured = capsys.readouterr().out
        assert "multipliers: 1" in captured

    def test_scale_none_out_of_range_exits_4(self, workdir):
        src = write(workdir / "big.apc", SINE5_SRC)
        assert main(["compile", src, "--scale", "none", "-o", str(workdir / "big.json")]) == 4

    def test_unscaled_coefficient_exits_4(self, workdir):
        src = write(workdir / "c.apc",
                    "system t\nvar y order 2\neq y'' = -2*y\ninit y = 0.1\ninit y' = 0\ntime 1\n")
        assert main(["compile", src, "--scale", "none", "-o", str(workdir / "c.json")]) == 4

    @pytest.mark.parametrize("source, message", [
        (OK_SRC + "bound y = 1.5e308\n", "bound 1.5e+308 of y exceeds the largest scale factor, 1e+308"),
        ("system s\nvar y order 1\nvar x order 0\neq x = y*y\neq y' = -x\ninit y = 0.5\n"
         "bound y = 1e200\ntime 1\n", "bound inf of y' exceeds the largest scale factor, 1e+308"),
        (OK_SRC + "bound y = 0.1\n", "initial condition 0.5 of y exceeds its bound 0.1"),
        (OK_SRC + "bound y = 1e-320\n", "initial condition 0.5 of y exceeds its bound 9.99989e-321"),
        ("system s\nvar y order 1\neq y' = -y\ninit y = 1e-300\nbound y = 1e-300\n"
         "bound y' = 1e300\ntime 1\n",
         "the stage from y' to y needs lambda <= 0, below every positive time scale"),
        ("system s\nvar y order 1\neq y' = -y\ninit y = 1e-16\nbound y = 1e-16\n"
         "bound y' = 2e307\ntime 1\n",
         "the stage from y' to y needs lambda <= 0, below every positive time scale"),
        ("system s\nvar y order 1\neq y' = 0\ninit y = 0.5\nbound y = 1e300\n"
         "bound y' = 1e-320\ntime 1\n", "the stage from y' to y has gain 0: the bound of y' over "
                                         "the bound of y underflows, which no time scale can mend"),
    ], ids=["huge", "huge-interval", "below-init", "subnormal", "ratio-underflow",
            "lambda-underflow", "zero-gain"])
    def test_bound_the_autoscaler_cannot_use_exits_4(self, workdir, capsys, source, message):
        """Each once ended in a grid-rounding or ScaleMap traceback or blamed
        a skipped autoscaler. The stage gain 2e307/1e-16 of lambda-underflow
        is past the float range, so its lambda limit reads 0; zero-gain's
        stage gain 1e-320/1e300 underflows to 0, which leaves lambda at k0."""
        src = write(workdir / "b.apc", source)
        assert main(["compile", src, "-o", str(workdir / "b.json")]) == 4
        assert capsys.readouterr().err == f"apc: scaling: {message}\n"

    @pytest.mark.parametrize("bound", ["1e307", "1e308", "0.45"])
    def test_bound_on_the_grid_compiles(self, workdir, bound):
        """1e308 is the largest scale factor; 0.45 rounds up to 0.5, which holds init y = 0.5."""
        src = write(workdir / "b.apc", OK_SRC + f"bound y = {bound}\n")
        assert main(["compile", src, "-o", str(workdir / "b.json")]) == 0

    @pytest.mark.parametrize("case", ["algebraic-cycle", "algebraic-self-loop"])
    @pytest.mark.parametrize("scale", ["auto", "none"])
    def test_algebraic_cycle_exits_3_as_check_does(self, workdir, capsys, case, scale):
        text, _, [line] = DIAGNOSTICS[case]
        src = write(workdir / "bad.apc", text)
        assert main(["compile", src, "--scale", scale]) == 3
        assert capsys.readouterr() == ("", f"{src}:{line}\n")

    def test_parse_error_exits_2(self, workdir):
        src = write(workdir / "p.apc", "var y order 1\n")
        assert main(["compile", src]) == 2

    def test_no_optimize_flag_is_gone(self, workdir, capsys):
        source = write(workdir / "sine.apc", SINE_SRC)
        assert main(["compile", source, "--no-optimize"]) == 1
        assert "unrecognized arguments: --no-optimize" in capsys.readouterr().err


class TestRun:
    def test_sine_full_period(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine", extra=("--scale", "none"))
        trace = workdir / "trace.csv"
        code = main(["run", str(out), "--tend", "6.2832", "--dt", "1e-3",
                     "--trace", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tau", "y", "y'"]
        y_first, y_last = float(rows[1][1]), float(rows[-1][1])
        assert abs(y_last - y_first) < 1e-3  # one full period
        assert (workdir / "trace.overloads.csv").exists()

    def test_tend_defaults_to_sidecar_horizon(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine", extra=("--scale", "none"))
        assert main(["run", str(out), "--dt", "1e-2"]) == 0
        assert "overloads: 0" in capsys.readouterr().out

    def test_tend_is_required_without_a_sidecar_horizon(self, workdir, capsys):
        save_netlist(Netlist([integrator("i", ["i"], ic=0.5)]), workdir / "bare.json")
        assert main(["run", "bare.json"]) == 1
        assert capsys.readouterr().err == (
            "apc: usage: --tend is required (no sidecar mapping with a horizon found)\n")

    def test_grid_that_cannot_quantize_a_net_exits_1(self, workdir, capsys):
        # 1.0 / 1e-310 overflows, so the integrators' nets cannot be quantized.
        out = compiled(workdir, SINE_SRC, "sine", extra=("--scale", "none"))
        assert main(["run", str(out), "--resolution", "1e-310", "--tend", "0.01"]) == 1
        assert capsys.readouterr().err == ("apc: resolution 1e-310 cannot quantize net 'int1': "
                                           "its bound 1.0 over the resolution overflows\n")
        assert main(["run", str(out), "--resolution", "1e-300", "--tend", "0.01"]) == 0
        assert capsys.readouterr().err == ""

    def test_problem_units(self, workdir):
        out = compiled(workdir, SINE5_SRC, "big")
        trace = workdir / "t.csv"
        assert main(["run", str(out), "--dt", "1e-3", "--trace", str(trace),
                     "--problem-units"]) == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert float(rows[1][1]) == pytest.approx(5.0)  # y(0) back in problem units

    def test_problem_units_equals_descaled_machine_trace(self, workdir):
        from apc.machine import load_netlist
        from apc.scaling import Mapping, descale_trace
        from apc.simulator import SimConfig, new_instance, step_grid

        out = compiled(workdir, SINE5_SRC, "big")
        machine_csv = workdir / "machine.csv"
        problem_csv = workdir / "problem.csv"
        assert main(["run", str(out), "--dt", "1e-2", "--trace", str(machine_csv)]) == 0
        assert main(["run", str(out), "--dt", "1e-2", "--trace", str(problem_csv),
                     "--problem-units"]) == 0

        netlist = load_netlist(out)
        mapping = Mapping.load(workdir / "big.map.json")
        tau_end = mapping.horizon_machine
        cfg = SimConfig(dt=1e-2, sample_every=max(1, step_grid(tau_end, 1e-2)[0] // 1000))
        trace = new_instance(netlist, cfg).run(tau_end)
        descaled = descale_trace(trace, mapping)

        import io

        buf = io.StringIO()
        descaled.write_csv(buf)
        assert problem_csv.read_text() == buf.getvalue()

    def test_overloads_csv_holds_each_reported_overload(self, workdir, capsys):
        out = compiled(workdir, UNSTABLE_SRC, "runaway", extra=("--scale", "none"))
        capsys.readouterr()
        trace = workdir / "runaway.csv"
        assert main(["run", str(out), "--tend", "2", "--trace", str(trace)]) == 0
        reported = int(capsys.readouterr().out.split("overloads: ")[1])
        with open(workdir / "runaway.overloads.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "element", "magnitude"]
        assert len(rows) - 1 == reported > 0
        times = [float(r[0]) for r in rows[1:]]
        assert times == sorted(times)
        assert all(float(r[2]) > 1.0 for r in rows[1:])

    def test_nan_into_a_function_generator_exits_4(self, workdir, capsys):
        # int1 overflows to -inf within the first step of 10; s reads
        # -inf + inf = NaN in the stage after, and looks it up.
        n = Netlist(named(
            [reference("r", 1.0), integrator("int1", ["r"], k0=1e308), summer("inv", ["int1"]),
             summer("s", ["int1", "inv"]), function_generator("fg", "s", [(-1, -1), (1, 1)]),
             integrator("int2", ["fg"])], int2="y"))
        save_netlist(n, workdir / "nanfg.json")
        assert main(["run", "nanfg.json", "--tend", "20", "--dt", "10"]) == 4
        assert capsys.readouterr().err == "apc: simulation: non-finite value at element 'int1'\n"

    def test_problem_units_without_sidecar_exits_1(self, workdir):
        out = compiled(workdir, SINE_SRC, "sine")
        (workdir / "sine.map.json").unlink()
        assert main(["run", str(out), "--tend", "1", "--problem-units"]) == 1

    def test_strict_overload_exits_5(self, workdir):
        out = compiled(workdir, UNSTABLE_SRC, "boom", extra=("--scale", "none"))
        assert main(["run", str(out), "--tend", "3", "--dt", "1e-3",
                     "--strict-overload"]) == 5

    def test_set_updates_parameter(self, workdir, capsys):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        trace = workdir / "t.csv"
        # k = 1 turns the system into a unit oscillator: y(2*pi) returns to 0.5
        code = main(["run", str(out), "--tend", "6.283185307179586", "--dt", "1e-3",
                     "--set", "k=1.0", "--trace", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-3)

    def test_set_sign_flip_rejected(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["run", str(out), "--tend", "1", "--set", "k=-0.5"]) == 1

    @pytest.mark.parametrize("command", [
        ["run", "--set", "k=0"],
        ["run", "--set", "k=-0"],
        ["sweep", "--param", "k=0:0.2:0.1", "--out", "s"],
    ], ids=["run", "run-negative-zero", "sweep"])
    def test_pot_set_to_zero(self, workdir, command):
        """Zero has no sign, so it flips no baked-in parity, and alpha 0 is
        a valid pot setting."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main([command[0], str(out), "--tend", "1", *command[1:]]) == 0

    @pytest.mark.parametrize("name", ["k", "coef1"], ids=["param", "coefficient"])
    def test_set_nan_is_not_a_number(self, workdir, capsys, name):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["run", str(out), "--tend", "1", "--set", f"{name}=nan"]) == 1
        assert capsys.readouterr().err == f"apc: usage: --set {name}: 'nan' is not a number\n"

    def test_set_alpha_out_of_range_exits_4(self, workdir, capsys):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["run", str(out), "--tend", "1", "--set", "k=1.5"]) == 4
        assert "apc: scaling: k=1.5 needs alpha 1.5 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["zz=0.5", "k=abc", "k"])
    def test_bad_set_exits_1(self, workdir, capsys, spec):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["run", str(out), "--tend", "1", "--set", spec]) == 1
        assert "apc: usage: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--dt", "0"), ("--samples", "0"), ("--tend", "nan"),
                                      ("--resolution", "2"), ("--adc-bits", "0")])
    def test_out_of_range_flag_exits_1(self, workdir, capsys, flag):
        out = compiled(workdir, SINE_SRC, "sine")
        assert main(["run", str(out), *flag]) == 1
        assert "apc: usage: " in capsys.readouterr().err

    @pytest.mark.parametrize("tend", ["-1", "0", "-0"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "k=0.1,0.2", "--out", "s"]],
                             ids=["run", "sweep"])
    def test_run_end_not_positive_exits_1(self, workdir, capsys, command, tend):
        """Such a run end once ran nothing and exited 0 with the initial values."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        capsys.readouterr()
        assert main([command[0], str(out), "--tend", tend, *command[1:]]) == 1
        assert capsys.readouterr() == ("", "apc: usage: --tend must be positive and finite, "
                                           f"got {float(tend)}\n")
        assert not (workdir / "s").exists()

    @pytest.mark.parametrize("horizon", [-1.0, 0.0])
    def test_sidecar_horizon_not_positive_exits_1(self, workdir, capsys, horizon):
        out = compiled(workdir, SINE_SRC, "sine")
        mpath = workdir / "sine.map.json"
        doc = json.loads(mpath.read_text())
        doc["horizon_machine"] = horizon
        mpath.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", str(out)]) == 1
        assert capsys.readouterr() == ("", "apc: usage: the sidecar mapping's horizon_machine "
                                           f"must be positive and finite, got {horizon}\n")

    def test_infinite_dt_exits_1(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine")
        assert main(["run", str(out), "--dt", "inf"]) == 1
        assert capsys.readouterr().err == "apc: usage: --dt must be positive and finite, got inf\n"

    def test_mapping_binding_without_net_exits_1(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine")
        mpath = workdir / "sine.map.json"
        doc = json.loads(mpath.read_text())
        del doc["signals"]["y"]["net"]
        mpath.write_text(json.dumps(doc))
        assert main(["run", str(out)]) == 1
        assert f"apc: {mpath}: missing key 'net' in signal 'y'" in capsys.readouterr().err

    def test_unwritable_trace_path_exits_1(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine")
        assert main(["run", str(out), "--trace", str(workdir / "nodir" / "t.csv")]) == 1
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"signals": [1]}', '{"signals": {"y": 5}}', "{",
        *(pytest.param(edit, id=edit) for edit in [
            "signals.y.parity=1e400", "signals.y.parity=0.5", "signals.y.parity=0",
            "signals.y'.parity=-2", "signals.y.amplitude_scale=0",
            "signals.y'.amplitude_scale=-0.5", "signals.y''.amplitude_scale=NaN",
            "signals.y.amplitude_scale=Infinity", "lambda=-2.0", "lambda=0", "k0=1e400",
            "k0=NaN", "params.k.scale=1e400", "params.k.scale=NaN", "params.k.value=-Infinity",
        ]),
    ])
    def test_malformed_mapping_exits_1(self, workdir, capsys, text):
        """A sidecar that is not JSON, or not a mapping, or one number of
        the compiled sidecar out of its range (``path=value``) exits 1 with
        one line naming the file."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        mpath = workdir / "vco.map.json"
        if not text.startswith("{"):
            doc = json.loads(mpath.read_text())
            path, value = text.split("=")
            *keys, last = path.split(".")
            field = doc
            for key in keys:
                field = field[key]
            field[last] = json.loads(value)
            text = json.dumps(doc)
        mpath.write_text(text)
        capsys.readouterr()
        assert main(["run", str(out), "--tend", "0.01", "--problem-units",
                     "--trace", str(workdir / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"apc: {mpath}: ") and err.count("\n") == 1


class TestSidecarMismatch:
    """A *.map.json that does not fit its netlist exits 1 naming the file."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["signals"].pop("y"), "output 'y' has no signal binding"),
        (lambda d: d["signals"]["y'"].update(net="ghost"), "signal \"y'\" binds missing net 'ghost'"),
        (lambda d: d["params"]["k"].update(element="nope"),
         "param 'k' binds 'nope', not a coefficient element"),
        (lambda d: d["params"]["k"].update(element="int1"),
         "param 'k' binds 'int1', not a coefficient element"),
        (lambda d: d["signals"]["y"].update(net="int1"),
         "signal 'y' binds net 'int1', but the netlist's output 'y' is net 'int2'"),
    ], ids=["unbound-output", "missing-net", "unknown-element", "integrator-element",
            "other-output-net"])
    @pytest.mark.parametrize("command", [
        ["run", "--tend", "1"],
        ["run", "--tend", "1", "--set", "k=0.5"],
        ["sweep", "--tend", "1", "--param", "k=0.1,0.2", "--out", "s"],
    ], ids=["run", "run-set", "sweep"])
    def test_mismatch_exits_1(self, workdir, capsys, edit, message, command):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        mpath = workdir / "vco.map.json"
        doc = json.loads(mpath.read_text())
        edit(doc)
        mpath.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:]]) == 1
        assert capsys.readouterr().err == f"apc: {mpath}: {message}\n"
        assert not (workdir / "s").exists()


def looped_netlist(workdir):
    """Two summers feeding each other through a coefficient: an algebraic loop."""
    n = Netlist(named([summer("s1", ["k"]), summer("s2", ["s1"]),
                       coefficient("k", "s2", 0.5)], s1="y"))
    path = workdir / "loop.json"
    save_netlist(n, path)
    return str(path)


def overload_netlist(workdir):
    """s = -(1 + k) overloads in the initial state and at every step."""
    n = Netlist(named([reference("r", 1.0), coefficient("k", "r", 0.5),
                       summer("s", ["r", "k"])], s="y"))
    path = workdir / "over.json"
    save_netlist(n, path)
    return path


def huge_gain_netlist(workdir, k0=1e308):
    """A +1 reference through a coefficient into an integrator of gain ``k0``.
    At 1e308 its state overflows on the first step of 10, and 100 * k0 overflows."""
    n = Netlist(named([reference("r", 1.0), coefficient("k", "r", 0.5),
                       integrator("i", ["k"], k0=k0)], i="y"))
    path = workdir / "big.json"
    save_netlist(n, path)
    return str(path)


def set_cpus(monkeypatch, cpus):
    """Make ``apc sweep`` see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_forks(monkeypatch) -> list:
    """A list that gains one entry per ``os.fork`` the parent makes."""
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_rows(monkeypatch, faults):
    """Make sweep row i call ``faults[i]()`` before its run."""
    real_run = cli._sweep_run

    def run(instance, tau_end, out_dir, row):
        faults.get(row[0], lambda: None)()
        return real_run(instance, tau_end, out_dir, row)

    monkeypatch.setattr(cli, "_sweep_run", run)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_(exc):
    def fault():
        raise exc
    return fault


def dense_loop_netlist(workdir):
    """Twelve summers each reading all twelve nets, and a coefficient k: more
    than 10^8 elementary cycles, of which an error names one."""
    ids = [f"s{i:02d}" for i in range(12)]
    n = Netlist(named([*[summer(i, ids) for i in ids], coefficient("k", "s00", 0.5)], k="y"))
    path = workdir / "dense.json"
    save_netlist(n, path)
    return str(path)


class TestInvalidNetlist:
    @pytest.mark.parametrize("file", ["netlist", "machine", "sidecar"])
    def test_deeply_nested_file_exits_1(self, workdir, capsys, file):
        """A file nested past what ``json`` decodes ends in one line."""
        out = compiled(workdir, SINE_SRC, "sine")
        deep = {"netlist": out, "machine": workdir / "spec.json",
                "sidecar": workdir / "sine.map.json"}[file]
        deep.write_text("[" * 100_000 + "]" * 100_000 if file != "sidecar"
                        else '{"a": ' * 50_000 + "1" + "}" * 50_000)
        argv = ["map", str(out), "--machine", str(deep)] if file == "machine" else ["run", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"apc: {deep}: nested too deeply\n"

    def test_run_names_the_loop(self, workdir, capsys):
        assert main(["run", looped_netlist(workdir), "--tend", "1"]) == 1
        assert "apc: algebraic loop(s): [['k', 's1', 's2']]" in capsys.readouterr().err
        assert main(["map", looped_netlist(workdir)]) == 1
        captured = capsys.readouterr()
        assert "apc: algebraic loop(s): [['k', 's1', 's2']]" in captured.err
        assert captured.out == ""

    def test_sweep_names_the_loop(self, workdir, capsys):
        assert main(["sweep", looped_netlist(workdir), "--param", "k=0.1,0.2", "--tend", "1",
                     "--out", str(workdir / "s")]) == 1
        assert "apc: algebraic loop(s): [['k', 's1', 's2']]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--tend", "1"], ["map"],
        ["sweep", "--param", "k=0.1,0.2", "--tend", "1", "--out", "s"],
    ], ids=["run", "map", "sweep"])
    def test_dense_loops_name_one_fast(self, workdir, capsys, command):
        path = dense_loop_netlist(workdir)
        start = time.perf_counter()
        assert main([command[0], path, *command[1:]]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == ("apc: algebraic loop(s): [['s00']]\n", "")

    @pytest.mark.parametrize("command", [
        ["run", "--tend", "1", "--trace", "t.csv"], ["map"],
        ["sweep", "--param", "k=0.1,0.2", "--tend", "1", "--out", "s"],
    ], ids=["run", "map", "sweep"])
    def test_duplicate_net_name_exits_1(self, workdir, capsys, command):
        """Two nets named y once validated, and run traced the last one as y;
        the loader rejects such a file."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        doc = json.loads(out.read_text())
        next(e for e in doc["elements"] if "name" not in e)["name"] = "y"
        out.write_text(json.dumps(doc))
        first, second = [e["id"] for e in doc["elements"] if e.get("name") == "y"]
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:]]) == 1
        assert capsys.readouterr() == ("", f"apc: {out}: elements {first!r} and {second!r} "
                                           "are both named 'y'\n")
        assert not (workdir / "t.csv").exists() and not (workdir / "s").exists()

    @pytest.mark.parametrize("case", ["aliased-id", "no-net", "two-nets", "unknown-driver",
                                      "as-written"])
    @pytest.mark.parametrize("command", [
        ["run", "--tend", "1", "--trace", "t.csv"], ["map"],
        ["sweep", "--param", "k=0.1,0.2", "--tend", "1", "--out", "s"],
    ], ids=["run", "map", "sweep"])
    def test_a_net_table_the_model_cannot_hold_exits_1(self, workdir, capsys, command, case):
        """A file with the ``nets`` table of earlier versions, as they wrote
        it or as they rejected it, exits 1 in one line naming the key."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        edit = {
            "aliased-id": lambda nets: nets[0].update(id="n1"),
            "no-net": lambda nets: nets.pop(1),
            "two-nets": lambda nets: nets.append(dict(nets[0])),
            "unknown-driver": lambda nets: nets.append({"id": "ghost", "driver": "ghost"}),
            "as-written": lambda nets: None,
        }[case]
        out.write_text(json.dumps(with_old_net_table(json.loads(out.read_text()), edit)))
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:]]) == 1
        assert capsys.readouterr() == ("", f"apc: {out}: {NETS_KEY}\n")
        assert not (workdir / "t.csv").exists() and not (workdir / "s").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--tend", "1", "--trace", "t.csv"],
        ["sweep", "--param", "k=0.1,0.2", "--tend", "1", "--out", "s"],
    ], ids=["run", "sweep"])
    def test_repeated_output_name_exits_1(self, workdir, capsys, command):
        """``"outputs": ["y", "y"]`` once ran: run printed y twice, and
        sweep's summary had two y columns where each run file had one."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        doc = json.loads(out.read_text())
        doc["outputs"] = ["y", "y"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:]]) == 1
        assert capsys.readouterr() == ("", "apc: netlist does not validate: duplicate-output: "
                                           "output 'y' is listed 2 times\n")
        assert not (workdir / "t.csv").exists() and not (workdir / "s").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--tend", "1"], ["map"],
        # The netlist is checked before a pot setting that names no coefficient.
        ["run", "--tend", "1", "--set", "k=0.1"],
        ["sweep", "--param", "k=0.1,0.2", "--tend", "1", "--out", "s"],
    ])
    def test_invalid_netlist_exits_1(self, workdir, capsys, command):
        path = workdir / "dangling.json"
        save_netlist(Netlist([summer("s1", ["ghost"])]), path)
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr().err == ("apc: netlist does not validate: "
                                           "s1: dangling-input: input references missing net 'ghost'\n")


    @pytest.mark.parametrize("command", [
        ["run", "--tend", "0.01"], ["run", "--tend", "0.01", "--dt", "1e-3"],
        ["sweep", "--param", "k=0.1,0.2", "--tend", "0.01", "--out", "s"],
    ], ids=["run", "run-dt", "sweep"])
    def test_integrator_without_k0_exits_1(self, workdir, capsys, command):
        """Without --dt such a netlist once ended in a KeyError traceback:
        the default step size read k0 before anything validated."""
        out = compiled(workdir, SINE_SRC, "sine")
        doc = json.loads(out.read_text())
        del next(e for e in doc["elements"] if e["id"] == "int1")["params"]["k0"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:]]) == 1
        assert capsys.readouterr() == ("", "apc: netlist does not validate: int1: param-range: "
                                           "expected params ['ic', 'k0'], got ['ic']\n")


class TestSweep:
    def test_ten_rows_and_traces(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        sweep_dir = workdir / "sweep"
        code = main(["sweep", str(out), "--param", "k=0.1:1.0:0.1", "--tend", "30",
                     "--dt", "1e-2", "--out", str(sweep_dir)])
        assert code == 0
        with open(sweep_dir / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "y", "overloads"]
        assert len(rows) == 11
        assert (sweep_dir / "run_000.csv").exists()
        assert (sweep_dir / "run_009.csv").exists()

    def test_frequency_monotone_in_alpha(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        sweep_dir = workdir / "sweep"
        assert main(["sweep", str(out), "--param", "k=0.1:1.0:0.1", "--tend", "30",
                     "--dt", "1e-2", "--out", str(sweep_dir)]) == 0
        crossings = []
        for i in range(10):
            with open(sweep_dir / f"run_{i:03d}.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            ys = [float(r[1]) for r in rows]
            crossings.append(sum(1 for a, b in zip(ys, ys[1:]) if a * b < 0))
        assert crossings == sorted(crossings)

    def test_empty_range_exits_1(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "k=1.0:0.1:0.1",
                     "--out", str(workdir / "s")]) == 1

    @pytest.mark.parametrize("old, new, scale, sweepable", [
        ("param k = 0.5", "param k = 0", "none", "none"),
        ("-k*y", "-k*y + 0.5*k", "none", "none"),
        ("-k*y", "-(k*k)*y - c*y'\nparam c = 0.25", "none", "c"),
        ("-k*y", "-k*y", "auto", "none"),
    ], ids=["compiled-at-0", "two-sites", "power", "unity-gain"])
    def test_an_unsweepable_parameter_names_the_sweepable_ones(self, workdir, capsys, old, new,
                                                              scale, sweepable):
        """Four ways a parameter maps to no one coefficient; the message
        lists the parameters the sidecar does bind."""
        out = compiled(workdir, VCO_SRC.replace(old, new), "vco", extra=("--scale", scale))
        capsys.readouterr()
        assert main(["sweep", str(out), "--param", "k=0.1,0.2", "--tend", "1",
                     "--out", str(workdir / "s")]) == 1
        assert capsys.readouterr() == ("", "apc: usage: parameter 'k' does not map to a "
                                           f"coefficient; sweepable parameters: {sweepable}\n")
        assert not (workdir / "s").exists()

    def test_unknown_param_exits_1(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "zz=0.1:0.5:0.1",
                     "--out", str(workdir / "s")]) == 1

    def test_alpha_out_of_range_exits_4(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "k=1.5:2.0:0.5", "--tend", "1",
                     "--out", str(workdir / "s")]) == 4

    def test_bad_range_exits_1(self, workdir, capsys):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        for spec, message in [("k=0.1:x:0.1", "--param: 'x' is not a number"),
                              ("k=0.1:nan:0.1", "--param: 'nan' is not a number"),
                              ("k=0.1,,y", "--param: 'y' is not a number"),
                              ("k=1:2", "range must be start:stop:step"),
                              ("k=0:inf:1", "sweep range must be finite"),
                              ("k=,", "empty sweep value list"),
                              ("k", "--param needs NAME=start:stop:step or NAME=v1,v2,...")]:
            capsys.readouterr()
            assert main(["sweep", str(out), "--param", spec, "--out", str(workdir / "s")]) == 1
            assert capsys.readouterr().err == f"apc: usage: {message}\n", spec
        assert not (workdir / "s").exists()

    def test_workers_flag_is_gone(self, workdir, capsys):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "k=0.2", "--tend", "1", "--workers", "2",
                     "--out", str(workdir / "s")]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_adc_bits_flag_is_gone(self, workdir, capsys):
        # A sweep's summary holds full-precision finals; it reads no ADC.
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "k=0.2", "--tend", "1", "--adc-bits", "4",
                     "--out", str(workdir / "s")]) == 1
        assert capsys.readouterr().err == "apc: usage: unrecognized arguments: --adc-bits 4\n"

    def test_each_run_equals_run_set(self, workdir, capsys):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        values = ["0.1", "0.35", "0.7"]
        flags = ["--tend", "5", "--dt", "1e-2", "--samples", "50"]
        assert main(["sweep", str(out), "--param", "k=" + ",".join(values), *flags,
                     "--out", str(workdir / "s")]) == 0
        with open(workdir / "s" / "summary.csv") as fh:
            summary = list(csv.reader(fh))[1:]
        capsys.readouterr()
        for i, v in enumerate(values):
            trace = workdir / f"run_{i}.csv"
            assert main(["run", str(out), *flags, "--set", f"k={v}", "--trace", str(trace)]) == 0
            assert (workdir / "s" / f"run_{i:03d}.csv").read_bytes() == trace.read_bytes()
            assert f"overloads: {summary[i][-1]}\n" in capsys.readouterr().out

    def test_overload_counts_equal_run_set(self, workdir, capsys):
        path = overload_netlist(workdir)
        flags = ["--tend", "0.05", "--dt", "1e-2"]
        assert main(["sweep", str(path), "--param", "k=0.2,0.9", *flags,
                     "--out", str(workdir / "s")]) == 0
        with open(workdir / "s" / "summary.csv") as fh:
            counts = [row[-1] for row in list(csv.reader(fh))[1:]]
        assert counts == ["6", "6"]  # the initial state plus 5 steps, for each value
        capsys.readouterr()
        assert main(["run", str(path), *flags, "--set", "k=0.9"]) == 0
        assert "overloads: 6\n" in capsys.readouterr().out

    @pytest.mark.parametrize("netlist, argv", [
        # 7 runs over 3 workers: an uneven split
        (lambda w: compiled(w, VCO_SRC, "vco", extra=("--scale", "none")),
         ["--param", "k=0.1,0.25,0.4,0.55,0.7,0.85,1.0", "--tend", "3", "--dt", "1e-2",
          "--samples", "40"]),
        (overload_netlist, ["--param", "k=0.2,0.9,0.5", "--tend", "0.05", "--dt", "1e-2"]),
    ], ids=["vco-7", "overload"])
    def test_output_does_not_depend_on_worker_count(self, workdir, capsys, monkeypatch,
                                                    netlist, argv):
        path = netlist(workdir)
        forks = count_forks(monkeypatch)
        outputs = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            capsys.readouterr()
            assert main(["sweep", str(path), *argv, "--out", str(workdir / "s")]) == 0
            files = {f.name: f.read_bytes() for f in sorted((workdir / "s").iterdir())}
            outputs.append((files, capsys.readouterr()))
            shutil.rmtree(workdir / "s")
        assert len(forks) == 0 + 1 + 2  # one lane fewer than the CPUs: this process runs one
        assert outputs[0] == outputs[1] == outputs[2]
        assert_no_child_left()

    @pytest.mark.parametrize("spec, rows", [("0:1:5e-324", "inf"), ("0:1:1e-300", "1e+300")])
    def test_oversized_range_exits_1(self, workdir, capsys, spec, rows):
        """The row count is checked before a value is built: a step near 0
        once overflowed, and a tiny step built 10^300 values."""
        assert main(["sweep", looped_netlist(workdir), "--param", f"k={spec}", "--tend", "1",
                     "--out", "s"]) == 1
        assert capsys.readouterr().err == (f"apc: usage: sweep range has {rows} rows, "
                                           f"at most {cli.MAX_SWEEP_ROWS} are allowed\n")

    def test_range_may_reach_the_row_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 3)
        assert cli._sweep_values("0:2:1") == [0.0, 1.0, 2.0]
        with pytest.raises(cli._UsageError, match="has 4 rows, at most 3"):
            cli._sweep_values("0:3:1")

    @pytest.mark.parametrize("cpus, values", [(3, "0.4"), (1, "0.2,0.4,0.6")])
    def test_one_worker_runs_in_process(self, workdir, monkeypatch, cpus, values):
        def no_fork():
            raise AssertionError("a one-worker sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        set_cpus(monkeypatch, cpus)
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", f"k={values}", "--tend", "1",
                     "--dt", "1e-2", "--out", str(workdir / "s")]) == 0

    def test_non_finite_value_exits_4_like_run(self, workdir, capsys, monkeypatch):
        path = huge_gain_netlist(workdir)
        flags = ["--tend", "10", "--dt", "10"]
        assert main(["run", path, *flags]) == 4
        run_err = capsys.readouterr().err
        assert run_err == "apc: simulation: non-finite value at element 'i'\n"
        set_cpus(monkeypatch, 3)
        assert main(["sweep", path, "--param", "k=0.5,0.9,0.7", *flags,
                     "--out", str(workdir / "s")]) == 4
        assert capsys.readouterr().err == run_err

    @pytest.mark.parametrize("faults, code, err", [
        # lane 1 (rows 1, 3) dies by a signal; lane 0 finishes
        ({1: kill_self}, 4,
         "apc: sweep: the lane running rows 1, 3 was killed by signal 9 (SIGKILL) "
         "without a result\n"),
        # lane 0, this process, fails while lane 1 is still running
        ({0: raise_(StructuralError("non-finite value at element 'x'")),
          1: lambda: time.sleep(0.5)}, 4, "apc: simulation: non-finite value at element 'x'\n"),
        # lane 1 fails first in row order; its code and line cross the pipe
        ({1: raise_(OSError(28, "No space left on device")),
          2: raise_(StructuralError("non-finite value at element 'x'"))}, 1,
         "apc: [Errno 28] No space left on device\n"),
        # a lost lane counts as its first row, after a failure in row 0
        ({0: raise_(StructuralError("row 0")), 3: kill_self}, 4, "apc: simulation: row 0\n"),
        # an exception no _ERRORS row maps ends its lane with status 1
        ({1: raise_(RuntimeError("unmapped"))}, 4,
         "apc: sweep: the lane running rows 1, 3 exited with status 1 without a result\n"),
        # an error with its own fields exits as in run
        ({1: raise_(OverloadError("x", 0.5, 2.0))}, 5,
         "apc: overload: overload at tau=0.5: element 'x' reached 2.0\n"),
    ], ids=["child-killed", "parent-fails", "child-fails-first", "lost-lane-later",
            "child-unmapped", "child-overload"])
    def test_failed_lane_exits_with_one_line(self, workdir, capsys, monkeypatch, faults, code,
                                             err):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        set_cpus(monkeypatch, 2)
        patch_rows(monkeypatch, faults)
        capsys.readouterr()
        assert main(["sweep", str(out), "--param", "k=0.1,0.2,0.3,0.4", "--tend", "1",
                     "--dt", "1e-2", "--out", str(workdir / "s")]) == code
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (err, "")
        assert not (workdir / "s" / "summary.csv").exists()
        assert_no_child_left()

    def test_unmapped_error_in_a_lane_prints_its_traceback(self, workdir, capfd, monkeypatch):
        """A child's error that no ``_ERRORS`` row maps reaches file
        descriptor 2 as its traceback, before the lost lane's line."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        set_cpus(monkeypatch, 2)
        patch_rows(monkeypatch, {1: raise_(RuntimeError("unmapped in row 1"))})
        capfd.readouterr()
        assert main(["sweep", str(out), "--param", "k=0.1,0.2,0.3,0.4", "--tend", "1",
                     "--dt", "1e-2", "--out", str(workdir / "s")]) == 4
        err = capfd.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("\nRuntimeError: unmapped in row 1\n"
                            "apc: sweep: the lane running rows 1, 3 exited with status 1 "
                            "without a result\n")
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_lanes(self, workdir, monkeypatch):
        """An interrupt in this process's lane does not wait for the others."""
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        set_cpus(monkeypatch, 3)
        patch_rows(monkeypatch, {0: raise_(KeyboardInterrupt()), 1: lambda: time.sleep(60),
                                 2: lambda: time.sleep(60)})
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", str(out), "--param", "k=0.1,0.2,0.3", "--tend", "1",
                  "--out", str(workdir / "s")])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_csv_files_quote_names_as_csv_writer_does(self, workdir, monkeypatch):
        n = Netlist(named([reference("r", 1.0), coefficient("k", "r", 0.5), summer("s", ["k"])],
                          k="a,b", s='say "s"', r="two\nlines"),
                    outputs=("a,b", 'say "s"', "two\nlines"))
        save_netlist(n, workdir / "q.json")
        set_cpus(monkeypatch, 2)
        assert main(["sweep", str(workdir / "q.json"), "--param", "k=0.25,0.5", "--tend", "0.1",
                     "--dt", "0.05", "--out", str(workdir / "s")]) == 0
        for name in ("summary.csv", "run_000.csv", "run_001.csv"):
            text = (workdir / "s" / name).read_text(encoding="utf-8")
            with open(workdir / "s" / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][1:4] == ["a,b", 'say "s"', "two\nlines"]
            rewritten = io.StringIO()
            csv.writer(rewritten, lineterminator="\n").writerows(rows)
            assert text == rewritten.getvalue()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "k=0.5", "--out", "s"]],
                             ids=["run", "sweep"])
    def test_default_dt_underflow_exits_1(self, workdir, capsys, command):
        path = huge_gain_netlist(workdir)
        assert main([command[0], path, "--tend", "10", *command[1:]]) == 1
        assert capsys.readouterr().err.endswith("; pass --dt\n")

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "k=0.5", "--out", "s"]],
                             ids=["run", "sweep"])
    @pytest.mark.parametrize("k0, flags, steps", [
        (1e300, ("--tend", "10"), "1e+303 steps of 1e-302"),
        (1.0, ("--tend", "9007199254740992", "--dt", "1"), "9.01e+15 steps of 1"),
    ], ids=["default-dt", "2**53"])
    def test_too_many_steps_exits_1(self, workdir, command, k0, flags, steps):
        """A run of 2**53 steps or more is refused: its step times t0 + i*dt
        are not all distinct. A separate process with a timeout: at k0 = 1e300
        the default step of 1e-302 once made a run that never ended."""
        path = huge_gain_netlist(workdir, k0)
        proc = subprocess.run([sys.executable, "-m", "apc", command[0], path, *flags,
                               *command[1:]], cwd=workdir, env=src_env(), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            1, f"apc: usage: the run needs {steps}, fewer than 2**53 are allowed; "
               "pass --dt or a shorter --tend\n")


class TestMap:
    def test_sine_onto_that(self, workdir):
        out = compiled(workdir, SINE_SRC, "sine", extra=("--scale", "none"))
        patch = workdir / "patch.txt"
        assert main(["map", str(out), "--machine", "that", "-o", str(patch)]) == 0
        assert "connect" in patch.read_text()

    def test_deficit_exits_4(self, workdir, capsys):
        lines = ["system six"]
        for i in range(6):
            lines += [f"var v{i} order 1", f"eq v{i}' = -v{i}", f"init v{i} = 0.5"]
        lines += ["time 1"]
        out = compiled(workdir, "\n".join(lines) + "\n", "six", extra=("--scale", "none"))
        assert main(["map", str(out), "--machine", "that"]) == 4
        assert "integrator: 1" in capsys.readouterr().err

    def test_invalid_spec_file_exits_1(self, workdir, capsys):
        out = compiled(workdir, SINE_SRC, "sine")
        bad = write(workdir / "bad.json", '{"name": "x", "inventory": {"comparator": 1}}')
        assert main(["map", str(out), "--machine", bad]) == 1
        inf = write(workdir / "inf.json", '{"name": "x", "inventory": {"integrator": Infinity}}')
        capsys.readouterr()
        assert main(["map", str(out), "--machine", inf]) == 1
        assert capsys.readouterr().err == (f"apc: {inf}: inventory count of integrator must be "
                                           "a non-negative integer, got inf\n")

    def test_custom_spec(self, workdir):
        out = compiled(workdir, SINE_SRC, "sine", extra=("--scale", "none"))
        spec = write(workdir / "mini.json",
                     json.dumps({"name": "mini", "inventory":
                                 {"integrator": 2, "summer": 1, "inverter": 0}}))
        assert main(["map", str(out), "--machine", spec]) == 0


#: An integer past the float range, which JSON's 1e400 is not.
HUGE_INT = 10**400
_NOT_VALID = "netlist does not validate: "


@pytest.mark.parametrize("case, command", [
    ("k0", "run"), ("k0", "sweep"), ("k0", "map"),
    ("breakpoint", "run"), ("breakpoint", "sweep"), ("breakpoint", "map"),
    ("lambda", "run"), ("lambda", "sweep"), ("inventory", "map"),
])
def test_an_integer_past_the_float_range_reads_as_inf(workdir, capsys, case, command):
    """A netlist, sidecar or machine spec holding 10**400 once ended run,
    sweep and map in an OverflowError traceback; it reads as 1e400 does."""
    source, name = (DECAY_LUT_SRC, "decay") if case == "breakpoint" else (VCO_SRC, "vco")
    out = compiled(workdir, source, name, extra=("--scale", "none"))
    doc = json.loads(out.read_text())
    if case == "k0":
        next(e for e in doc["elements"] if e["id"] == "int1")["params"]["k0"] = HUGE_INT
        message = _NOT_VALID + "int1: param-range: k0 inf must be positive"
    elif case == "breakpoint":
        next(e for e in doc["elements"] if e["id"] == "fgen1")["params"]["table"][2][0] = HUGE_INT
        message = _NOT_VALID + "fgen1: param-range: breakpoint (inf, 1.0) outside [-1, 1]"
    out.write_text(json.dumps(doc))
    mpath = workdir / f"{name}.map.json"
    if case == "lambda":
        mapping = json.loads(mpath.read_text())
        mapping["lambda"] = HUGE_INT
        mpath.write_text(json.dumps(mapping))
        message = f"{mpath}: 'lambda' of mapping file must be positive and finite, got inf"
    spec = "that"
    if case == "inventory":
        spec = write(workdir / "spec.json",
                     json.dumps({"name": "x", "inventory": {"integrator": HUGE_INT}}))
        message = f"{spec}: inventory count of integrator must be a non-negative integer, got inf"
    argv = {"run": ["--tend", "0.01", "--problem-units"],
            "sweep": ["--param", "k=0.5", "--tend", "0.01", "--out", "s"],
            "map": ["--machine", spec]}[command]
    capsys.readouterr()
    assert main([command, str(out), *argv]) == 1
    assert capsys.readouterr() == ("", f"apc: {message}\n")


@pytest.mark.parametrize("point, kind", [(["0.0", "0.0"], "str"), ([0.0, True], "bool")],
                         ids=["string", "boolean"])
def test_a_table_breakpoint_that_is_no_json_number_exits_1(workdir, capsys, point, kind):
    """A breakpoint written as a string once read as the number it spells,
    and a boolean as 0 or 1, so the run went on and exited 0, where an "ic"
    of "0.5" exits 1: each coordinate is checked as "ic" is."""
    out = compiled(workdir, DECAY_LUT_SRC, "decay")
    doc = json.loads(out.read_text())
    next(e for e in doc["elements"] if e["id"] == "fgen1")["params"]["table"][1] = point
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", str(out), "--tend", "0.01"]) == 1
    assert capsys.readouterr() == ("", f"apc: {out}: breakpoint of 'table' of params of element "
                                       f"'fgen1' must be a number, got {kind}\n")


#: What a mutation puts in place of a JSON value or adds under a new key.
_JUNK = (None, True, False, "", "x", [], [0.5, 0.5], {}, 0, -1, 0.5, 2**64, HUGE_INT, -HUGE_INT,
         1e400, -1e400, math.nan)


def _nodes(doc, path=()):
    """(path, value) of ``doc`` and of every value inside it."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(value, (*path, key))


def _mutant(doc, rng: random.Random) -> tuple[str, str]:
    """One mutation of the JSON document ``doc``: (what it did, the text)."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    op = rng.choice(["replace", "replace", "delete", "add"])
    if op == "replace":
        path, _ = rng.choice([(path, n) for path, n in nodes if not isinstance(n, (dict, list))])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(_JUNK)
    else:
        containers = [(path, n) for path, n in nodes if isinstance(n, (dict, list))
                      and (n or op == "add")]
        path, node = rng.choice(containers)
        if op == "delete":
            del node[rng.choice(list(node) if isinstance(node, dict) else range(len(node)))]
        elif isinstance(node, dict):
            node["extra"] = rng.choice(_JUNK)
        else:
            node.append(rng.choice(_JUNK))
    return f"{op} at {path!r}", json.dumps(doc)


def test_mutated_inputs_exit_with_one_line(workdir, capsys):
    """About 200 mutations of a compiled sine oscillator's netlist and
    sidecar (the unscaled vco, whose sidecar binds param k) and of a
    machine spec: leaf values swapped for null, booleans, strings, lists,
    objects, +-1e400, NaN, 2**64 or +-10**400, keys or items deleted or
    added, and a few files of random bytes. run, run --problem-units,
    a one-value sweep (which forks nothing) and map each return an exit
    code 0..5 without raising, and a nonzero exit writes exactly one
    ``apc:`` line, or map's deficit report."""
    rng = random.Random(30)
    netlist = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
    sidecar, spec = workdir / "vco.map.json", workdir / "spec.json"
    pristine = {netlist: netlist.read_text(), sidecar: sidecar.read_text(),
                spec: json.dumps({"name": "m", "inventory": {"integrator": 5, "summer": 4,
                                                             "coefficient": 8}})}
    run = ["--tend", "0.05", "--dt", "0.01"]
    commands = [["run", str(netlist), *run],
                ["run", str(netlist), *run, "--problem-units", "--trace", "t.csv"],
                ["sweep", str(netlist), *run, "--param", "k=0.25", "--out", "s"],
                ["map", str(netlist), "--machine", str(spec)]]
    for i in range(200):
        for path, text in pristine.items():
            path.write_text(text)
        target = rng.choice(list(pristine))
        if i % 40 == 0:
            what, text = "random bytes", None
            target.write_bytes(rng.randbytes(rng.randrange(1, 64)))
        else:
            what, text = _mutant(json.loads(pristine[target]), rng)
            target.write_text(text)
        for argv in commands[3:] if target == spec else commands:
            code = main(argv)
            err = capsys.readouterr().err
            case = f"{target.name}: {what}: {argv[0]} exited {code} with {err!r}; {text}"
            assert 0 <= code <= 5, case
            if code:
                first, *rest = err.splitlines(keepends=True) or [""]
                assert first.startswith("apc: ") and first.endswith("\n"), case
                deficit = argv[0] == "map" and first.startswith("apc: resources: ")
                assert all(line.startswith("  missing ") for line in rest) if deficit else not rest, case


def readme_blocks(heading: str, lang: str = "") -> list[str]:
    """The bodies of the ``lang`` code blocks in README's section ``heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.S | re.M)
    return [body for tag, body in blocks if tag == lang]


def tour_program() -> str:
    """The README's sine.apc."""
    return readme_blocks("Quick tour")[0]


def test_readme_quick_tour(workdir, capsys):
    """The README's sine.apc and its five commands work as written."""
    program = tour_program()
    assert program.startswith("system sine\n")
    commands = readme_blocks("Quick tour", "sh")[0].splitlines()
    write(workdir / "sine.apc", program)
    assert len(commands) == 5
    for line in commands:
        argv = shlex.split(line.partition("#")[0])
        assert argv[0] == "apc" and argv[2].startswith("sine."), line
        assert main(argv[1:]) == 0, line
    assert (workdir / "out.csv").read_text().startswith("t,y,y'\n")
    assert "connect INT1.out" in capsys.readouterr().out


def test_readme_sweep(workdir):
    """The README's sweep of the sample vco works as written."""
    commands = readme_blocks("Quick tour", "sh")[1].splitlines()
    (workdir / "programs").mkdir()
    shutil.copy(ROOT / "programs" / "vco.apc", workdir / "programs")
    assert len(commands) == 2
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    rows = (workdir / "sweep" / "summary.csv").read_text().splitlines()
    assert rows[0] == "value,y,overloads" and len(rows) == 11
    assert len(list((workdir / "sweep").glob("run_*.csv"))) == 10


def test_readme_custom_machine_holds_the_tour_sine(workdir):
    """The README's custom machine spec, loaded by ``apc map``."""
    (spec,) = readme_blocks("Machine placement", "json")
    write(workdir / "mini.json", spec)
    write(workdir / "sine.apc", tour_program())
    assert main(["compile", "sine.apc", "-o", "sine.json"]) == 0
    assert main(["map", "sine.json", "--machine", "mini.json"]) == 0


def test_ci_runs_the_roadmap_tier1_command():
    """The workflow's test step is ROADMAP.md's tier-1 command, verbatim."""
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())[1]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert f"        run: {command}\n" in workflow


def test_readme_library_use():
    """The README's library example, run on the tour's sine.apc."""
    (code,) = readme_blocks("Library use", "python")
    namespace = {"source_text": tour_program()}
    exec(code, namespace)
    trace, problem = namespace["trace"], namespace["problem_trace"]
    assert trace.tau[-1] == namespace["machine"].tau == namespace["result"].mapping.horizon_machine
    assert problem.tau[-1] == pytest.approx(2 * math.pi) and trace.overloads == []
    assert abs(problem.series["y"][-1] - 0.5) < 1e-3  # one period: back to sin(pi/6)


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports apc from src/."""
    return subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, check=True).stdout


def test_import_leaves_out_networkx_and_scipy():
    """``import apc`` loads no dependency of the oracle or of the test suite."""
    code = "import sys, apc; print(sorted({'networkx', 'numpy', 'scipy'} & set(sys.modules)))"
    assert fresh_python(code).strip() == "[]"


def test_cli_import_leaves_out_multiprocessing():
    code = "import apc.cli, sys; print('multiprocessing' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_forked_sweep_loads_no_process_pool(tmp_path):
    """A sweep over three lanes forks them itself: neither ``multiprocessing``
    nor ``concurrent.futures`` is loaded, nor ``csv`` or ``pickle``, also
    when a row of a child lane fails and sends back its code and line."""
    vco = compiled(tmp_path, VCO_SRC, "vco", ("--scale", "none"))
    argv = ["sweep", str(vco), "--param", "k=0.2,0.4,0.6", "--tend", "1",
            "--out", str(tmp_path / "sweep")]
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "from apc import cli\n"
            "ok = cli.main(%r)\n"
            "from apc.machine import StructuralError\n"
            "run = cli._sweep_run\n"
            "def fail_row_1(instance, tau_end, out_dir, row):\n"
            "    if row[0] == 1:\n"
            "        raise StructuralError('row 1')\n"
            "    return run(instance, tau_end, out_dir, row)\n"
            "cli._sweep_run = fail_row_1\n"
            "failed = cli.main(%r)\n"
            "print(ok, failed, [m for m in ('multiprocessing', 'concurrent.futures', 'csv', "
            "'pickle') if m in sys.modules])" % (argv, [*argv[:-1], str(tmp_path / "failed")]))
    assert fresh_python(code).splitlines()[-1] == "0 4 []"
    assert sorted(f.name for f in (tmp_path / "sweep").iterdir()) == [
        "run_000.csv", "run_001.csv", "run_002.csv", "summary.csv"]


def test_autoscaled_compile_leaves_out_scipy(tmp_path):
    """No sample program's autoscaled compile loads numpy or scipy: the
    linear ones take modal bounds, xabc interval bounds and decay, whose
    lookup table once sent it to the oracle, an invariant box. Only the
    box's exact rationals load ``fractions`` (and ``decimal``, 3.6 ms):
    the interval fill's signed intervals are of floats."""
    for path in sorted((ROOT / "programs").glob("*.apc")):
        argv = ["compile", str(path), "--scale", "auto", "-o", str(tmp_path / f"{path.stem}.json")]
        code = ("import sys; from apc.cli import main; code = main(%r); "
                "print(code, 'numpy' in sys.modules, "
                "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), "
                "'fractions' in sys.modules)" % argv)
        boxed = path.stem == "decay"
        assert fresh_python(code).splitlines()[-1] == f"0 False [] {boxed}", path.stem


#: Every name ``apc`` exported when its ``__init__`` still imported every
#: submodule, but ``algebraic_loops``, which enumerated every cycle,
#: ``Net``, a net being its driver's output, the compiler's two range
#: errors, which are ``ScalingError`` now, and ``CompileError``, whose one
#: check ``evaluation_order`` makes: all are gone.
PACKAGE_NAMES = [
    "BoundsEstimate", "CompileOptions", "CompileResult", "ConstructionError",
    "Diagnostic", "Element", "Kind", "MachineInstance", "MachineSpec", "Mapping", "Mode",
    "ModeError", "Netlist", "OdeSystem", "OverloadError", "PatchAssignment",
    "ResourceError", "ScaleMap", "ScalingError", "SignalBinding",
    "SimConfig", "StructuralError", "THAT", "Trace",
    "amplitude_scale", "apply_assignment", "autoscale", "compile_system",
    "compiler", "descale_trace", "dsl", "element_output", "estimate_bounds", "evaluation_order",
    "fabric", "load_machine_spec", "load_netlist", "machine", "map_netlist", "netlist_from_dict",
    "netlist_to_dict", "new_instance", "parse", "patch_instructions", "pretty",
    "reference_solution", "resolve", "save_netlist", "scaling", "simulator", "time_scale",
    "validate",
]


def test_import_apc_loads_no_submodule():
    """The package loads its submodules on first use, not on import."""
    code = "import sys, apc; print(sorted(m for m in sys.modules if m.startswith('apc.')))"
    assert fresh_python(code).strip() == "[]"


def test_every_package_name_resolves_and_is_listed():
    """``dir(apc)`` lists every exported name before any is used, each one
    resolves, and ``from apc import *`` binds them all."""
    code = ("import apc; names = %r; listed = set(dir(apc)); "
            "print([n for n in names if n not in listed]); "
            "print([n for n in names if getattr(apc, n, None) is None]); "
            "star = {}; exec('from apc import *', star); "
            "print(sorted(set(names) - set(star)))" % PACKAGE_NAMES)
    assert fresh_python(code).splitlines() == ["[]", "[]", "[]"]


def test_sidecar_names_keep_their_scaling_home():
    """The sidecar mapping lives in machine and de-scaling in simulator;
    scaling still resolves the names perfbench reads there, and the error
    it raises, as the same objects."""
    from apc import machine, scaling, simulator

    moved = {"Mapping": machine, "ScalingError": machine, "descale_trace": simulator}
    for name, home in moved.items():
        assert getattr(scaling, name) is getattr(home, name)


def test_modules_import_no_private_name_from_each_other():
    """No apc module imports another's underscore name: the rule
    ``grep -nE "^from \\.[a-z]+ import .*\\b_" src/apc/*.py`` states, read
    from the syntax tree so that a parenthesized import counts too."""
    found = []
    for path in sorted((ROOT / "src" / "apc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


#: command -> the apc modules besides apc.cli that running it loads; a map
#: that fails on a loop reports it without loading the simulator.
COMMAND_MODULES = {
    "check": ["apc.dsl", "apc.record"],
    "compile": ["apc.compiler", "apc.dsl", "apc.linear", "apc.machine", "apc.record",
                "apc.scaling"],
    "compile-none": ["apc.compiler", "apc.dsl", "apc.machine", "apc.record"],
    "run": ["apc.machine", "apc.record", "apc.simulator"],
    "run-problem-units": ["apc.machine", "apc.record", "apc.simulator"],
    "sweep": ["apc.machine", "apc.record", "apc.simulator"],
    "map": ["apc.fabric", "apc.machine", "apc.record"],
    "map-loop": ["apc.fabric", "apc.machine", "apc.record"],
}

#: command -> its exit code, where it is not 0.
COMMAND_EXITS = {"map-loop": 1}


#: command -> the apc classes that are dataclasses once it has run; every
#: other command never imports ``dataclasses``.
COMMAND_DATACLASSES = {"check": ["apc.dsl.OdeSystem"], "compile": ["apc.dsl.OdeSystem"],
                       "compile-none": ["apc.dsl.OdeSystem"]}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(workdir, command):
    """Each command loads only its own modules. Records are plain slotted
    classes: only ``OdeSystem``, which callers copy with
    ``dataclasses.replace``, is a dataclass, so a command that never
    resolves a program never imports ``dataclasses``."""
    sine = compiled(workdir, SINE_SRC, "sine")
    vco = compiled(workdir, VCO_SRC, "vco", ("--scale", "none"))
    argv = {
        "check": ["check", str(workdir / "sine.apc")],
        "compile": ["compile", str(workdir / "sine.apc"), "-o", str(workdir / "c.json")],
        "compile-none": ["compile", str(workdir / "sine.apc"), "--scale", "none",
                         "-o", str(workdir / "c.json")],
        "run": ["run", str(sine), "--trace", str(workdir / "t.csv")],
        "run-problem-units": ["run", str(sine), "--trace", str(workdir / "t.csv"),
                              "--problem-units"],
        "sweep": ["sweep", str(vco), "--param", "k=0.2,0.4", "--tend", "1",
                  "--out", str(workdir / "sweep")],
        "map": ["map", str(sine), "--machine", "that"],
        "map-loop": ["map", looped_netlist(workdir)],
    }[command]
    code = ("import sys; from apc.cli import main; code = main(%r); "
            "print(code, sorted(m for m in sys.modules "
            "if m.startswith('apc.') and m != 'apc.cli')); "
            "print('dataclasses' in sys.modules, sorted(f'{m}.{n}' "
            "for m, mod in list(sys.modules.items()) if m.startswith('apc.') "
            "for n, v in vars(mod).items() if isinstance(v, type) and v.__module__ == m "
            "and hasattr(v, '__dataclass_fields__')))" % argv)
    dataclasses = COMMAND_DATACLASSES.get(command, [])
    assert fresh_python(code).splitlines()[-2:] == [f"{COMMAND_EXITS.get(command, 0)} "
                                                    f"{COMMAND_MODULES[command]}",
                                                    f"{bool(dataclasses)} {dataclasses}"]


@pytest.mark.parametrize("first, second", [("compiler", "scaling"), ("scaling", "compiler")])
def test_compiler_loads_without_the_scaler(first, second):
    """The compiler owns the normal form, ``demand`` and ``ScaleMap`` and
    imports nothing from ``scaling``, which imports them from it; either
    module may be imported first."""
    code = ("import sys\n"
            f"import apc.{first}\n"
            "print('apc.scaling' in sys.modules)\n"
            f"import apc.{second}\n"
            "from apc import compiler, scaling\n"
            "print(scaling.ScaleMap is compiler.ScaleMap)\n")
    assert fresh_python(code).splitlines() == [str(first == "scaling"), "True"]


def test_importing_apc_runs_no_generated_code():
    """No apc module builds code from text (``exec`` or ``eval`` of a string,
    as a dataclass or a namedtuple does) when it is imported: the modules a
    run or a map loads build none, and the rest build only what
    ``dataclasses`` builds, on import and for ``OdeSystem``."""
    code = ("import builtins, sys\n"
            "made = []\n"
            "def spy(real):\n"
            "    def call(source, *args, **kwargs):\n"
            "        if isinstance(source, str):\n"
            "            frame, names = sys._getframe(1), set()\n"
            "            while frame:\n"
            "                names.add(frame.f_globals.get('__name__'))\n"
            "                frame = frame.f_back\n"
            "            made.append('dataclasses' in names)\n"
            "        return real(source, *args, **kwargs)\n"
            "    return call\n"
            "builtins.exec, builtins.eval = spy(builtins.exec), spy(builtins.eval)\n"
            "import apc.cli, apc.fabric, apc.machine, apc.record, apc.simulator\n"
            "print(len(made))\n"
            "import apc.compiler, apc.dsl, apc.scaling\n"
            "print(sorted(set(made)))\n")
    assert fresh_python(code).splitlines() == ["0", "[True]"]


@pytest.mark.parametrize("k0", ["0", "-1", "nan", "inf"])
def test_compile_rejects_k0_outside_the_positive_finite_range(tmp_path, k0):
    """A separate process with a timeout: each value once ended in a
    traceback or in an invalid-netlist internal error."""
    source = write(tmp_path / "c.apc", SINE_SRC)
    for scale in ("auto", "none"):
        proc = subprocess.run([sys.executable, "-m", "apc", "compile", source, f"--k0={k0}",
                               "--scale", scale, "-o", str(tmp_path / "c.json")],
                              env=src_env(), capture_output=True, text=True, timeout=60)
        message = f"apc: usage: --k0 must be positive and finite, got {float(k0)}\n"
        assert (proc.returncode, proc.stderr) == (1, message)


#: A program whose one constant line a case below replaces.
CONSTANTS_SRC = ("system t\nparam k = 0.5\nvar y order 2\neq y'' = -k*y\ninit y = 0.5\n"
                 "init y' = 0\ntime 1\noutput y\n")


@pytest.mark.parametrize("old, new, flags, where", [
    ("time 1", "time 1e300*1e300", (), "7:11: time horizon"),
    ("output y", "bound y = 1e300*1e300\noutput y", (), "8:16: bound"),
    ("init y = 0.5", "init y = 1e300*1e300", (), "5:15: initial condition"),
    ("init y = 0.5", "init y = 1e300*1e300", ("--scale", "none"), "5:15: initial condition"),
    ("param k = 0.5", "param k = 1e300*1e300 - 1e300*1e300", (), "2:23: param value"),
    ("param k = 0.5", "param k = exp(1000)", (), "2:11: param value"),
], ids=["time", "bound", "init", "init-unscaled", "param-nan", "param-exp"])
def test_non_finite_constant_exits_3(tmp_path, old, new, flags, where):
    """A constant that folds to inf or NaN is one resolve diagnostic, exit 3.
    A separate process with a timeout: an infinite horizon once never ended."""
    source = write(tmp_path / "c.apc", CONSTANTS_SRC.replace(old, new))
    proc = subprocess.run([sys.executable, "-m", "apc", "compile", source, *flags,
                           "-o", str(tmp_path / "c.json")],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    message = f"{source}:{where} does not fold to a finite number\n"
    assert (proc.returncode, proc.stderr) == (3, message)


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_no_args(self):
        assert main([]) == 1


# ---------------------------------------------------------------------------
# The process edge: ``python -m apc`` and the ``apc`` script run
# ``cli.entry``, which sets the collector policy; ``cli.main`` never does.

@pytest.mark.parametrize("argv, code", [
    (["check", "sine.apc"], 0),
    (["compile", "sine.apc", "-o", "sine.json"], 0),
    (["run", "sine.json", "--dt", "1e-2"], 0),
    (["run", "runaway.json", "--strict-overload"], 5),
    (["sweep", "vco.json", "--param", "k=0.2,0.4", "--tend", "1", "--out", "sweep"], 0),
    (["map", "sine.json"], 0),
    (["frobnicate"], 1),
], ids=["check", "compile", "run", "strict", "sweep", "map", "usage"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(workdir, capsys, argv, code, enabled):
    write(workdir / "sine.apc", SINE_SRC)
    compiled(workdir, SINE_SRC, "sine")
    compiled(workdir, UNSTABLE_SRC, "runaway", ("--scale", "none"))
    compiled(workdir, VCO_SRC, "vco", ("--scale", "none"))
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()


def test_entry_freezes_the_heap_and_exits_with_the_code(workdir):
    """``entry`` runs ``main`` with the collector on, freezes the heap
    before exit, and exits with the command's code."""
    write(workdir / "sine.apc", SINE_SRC)
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
            "sys.argv[1:] = ['check', 'sine.apc']\n"
            "from apc.cli import entry\n"
            "entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")


#: (argv, exit code) of the commands run both ways, in order, each on the
#: files of the ones before: the runaway unscaled, traced and strict, and
#: the autoscaled decay, whose output rides at parity -1.
ENTRY_COMMANDS = [
    (["compile", "runaway.apc", "--scale", "none", "-o", "runaway-none.json"], 0),
    (["run", "runaway-none.json", "--trace", "runaway-none.csv"], 0),
    (["run", "runaway-none.json", "--strict-overload"], 5),
    (["compile", "decay.apc", "-o", "decay.json"], 0),
    (["run", "decay.json", "--trace", "decay.csv"], 0),
    (["run", "decay.json", "--trace", "decay.pu.csv", "--problem-units"], 0),
    (["run", "decay.json", "--dt", "0"], 1),
    (["run"], 1),
]


def test_outputs_do_not_depend_on_the_entry_point(tmp_path, capsys, monkeypatch):
    """``python -m apc`` writes the same files, byte for byte, prints the same
    lines and exits with the same codes as ``cli.main`` in this process."""
    results = {}
    for way in ("process", "main"):
        work = tmp_path / way
        work.mkdir()
        write(work / "runaway.apc", UNSTABLE_SRC)
        shutil.copy(ROOT / "programs" / "decay.apc", work)
        monkeypatch.chdir(work)
        seen = []
        for argv, code in ENTRY_COMMANDS:
            if way == "process":
                proc = subprocess.run([sys.executable, "-m", "apc", *argv], cwd=work,
                                      env=src_env(), capture_output=True, text=True, timeout=60)
                seen.append((proc.returncode, proc.stdout, proc.stderr))
            else:
                returned = main(argv)
                seen.append((returned, *capsys.readouterr()))
            assert seen[-1][0] == code, (way, argv)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        results[way] = seen, files
    assert sorted(results["main"][1]) == sorted(
        ["runaway.apc", "decay.apc", "decay.json", "decay.map.json", "runaway-none.json",
         "runaway-none.map.json"] + [f"{stem}{ext}" for stem in ("runaway-none", "decay", "decay.pu")
                                     for ext in (".csv", ".overloads.csv")])
    assert results["process"] == results["main"]


def test_the_console_script_runs_what_python_m_apc_runs():
    """pyproject.toml's ``apc`` script names the callable ``__main__`` calls."""
    tomllib = pytest.importorskip("tomllib")
    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["apc"]
    module, _, name = script.partition(":")
    assert (ROOT / "src" / "apc" / "__main__.py").read_text() == (
        f"from .{module.removeprefix('apc.')} import {name}\n\n{name}()\n")
    assert script == "apc.cli:entry"
