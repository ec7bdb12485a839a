import csv
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from apc.cli import main
from apc.machine import (
    Netlist,
    coefficient,
    function_generator,
    integrator,
    reference,
    save_netlist,
    summer,
)
from conftest import FIG2_SRC, ROOT, SINE5_SRC, SINE_SRC, UNSTABLE_SRC, VCO_SRC, src_env


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

    def test_missing_file_exits_1(self, workdir):
        assert main(["check", "nope.apc"]) == 1

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
        assert set(doc) == {"elements", "nets", "outputs"}

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
        n = Netlist.from_elements(
            [reference("r", 1.0), integrator("int1", ["r"], k0=1e308), summer("inv", ["int1"]),
             summer("s", ["int1", "inv"]), function_generator("fg", "s", [(-1, -1), (1, 1)]),
             integrator("int2", ["fg"])], outputs={"y": "int2"})
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

    @pytest.mark.parametrize("text", ['{"signals": [1]}', '{"signals": {"y": 5}}', "{"])
    def test_malformed_mapping_exits_1(self, workdir, capsys, text):
        out = compiled(workdir, SINE_SRC, "sine")
        (workdir / "sine.map.json").write_text(text)
        assert main(["run", str(out)]) == 1
        assert "sine.map.json: " in capsys.readouterr().err


class TestSidecarMismatch:
    """A *.map.json that does not fit its netlist exits 1 naming the file."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["signals"].pop("y"), "output 'y' has no signal binding"),
        (lambda d: d["signals"]["y'"].update(net="ghost"), "signal \"y'\" binds missing net 'ghost'"),
        (lambda d: d["params"]["k"].update(element="nope"),
         "param 'k' binds 'nope', not a coefficient element"),
        (lambda d: d["params"]["k"].update(element="int1"),
         "param 'k' binds 'int1', not a coefficient element"),
    ], ids=["unbound-output", "missing-net", "unknown-element", "integrator-element"])
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
    n = Netlist.from_elements([summer("s1", ["k"]), summer("s2", ["s1"]),
                               coefficient("k", "s2", 0.5)], outputs={"y": "s1"})
    path = workdir / "loop.json"
    save_netlist(n, path)
    return str(path)


def overload_netlist(workdir):
    """s = -(1 + k) overloads in the initial state and at every step."""
    n = Netlist.from_elements([reference("r", 1.0), coefficient("k", "r", 0.5),
                               summer("s", ["r", "k"])], outputs={"y": "s"})
    path = workdir / "over.json"
    save_netlist(n, path)
    return path


def huge_gain_netlist(workdir, k0=1e308):
    """A +1 reference through a coefficient into an integrator of gain ``k0``.
    At 1e308 its state overflows on the first step of 10, and 100 * k0 overflows."""
    n = Netlist.from_elements([reference("r", 1.0), coefficient("k", "r", 0.5),
                               integrator("i", ["k"], k0=k0)], outputs={"y": "i"})
    path = workdir / "big.json"
    save_netlist(n, path)
    return str(path)


def set_cpus(monkeypatch, cpus):
    """Make ``apc sweep`` see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestInvalidNetlist:
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

    @pytest.mark.parametrize("command", [["run", "--tend", "1"], ["map"]])
    def test_invalid_netlist_exits_1(self, workdir, capsys, command):
        path = workdir / "dangling.json"
        save_netlist(Netlist.from_elements([summer("s1", ["ghost"])]), path)
        assert main([command[0], str(path), *command[1:]]) == 1
        assert "apc: netlist does not validate" in capsys.readouterr().err


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

    def test_unknown_param_exits_1(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "zz=0.1:0.5:0.1",
                     "--out", str(workdir / "s")]) == 1

    def test_alpha_out_of_range_exits_4(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "k=1.5:2.0:0.5", "--tend", "1",
                     "--out", str(workdir / "s")]) == 4

    def test_bad_range_exits_1(self, workdir):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        for spec in ("k=0.1:x:0.1", "k=0.1:nan:0.1", "k=0.1,,y"):
            assert main(["sweep", str(out), "--param", spec, "--out", str(workdir / "s")]) == 1

    def test_workers_flag_is_gone(self, workdir, capsys):
        out = compiled(workdir, VCO_SRC, "vco", extra=("--scale", "none"))
        assert main(["sweep", str(out), "--param", "k=0.2", "--tend", "1", "--workers", "2",
                     "--out", str(workdir / "s")]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

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
        import multiprocessing

        pools = []
        real_get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: pools.append(method) or real_get_context(method))
        outputs = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            capsys.readouterr()
            assert main(["sweep", str(path), *argv, "--out", str(workdir / "s")]) == 0
            files = {f.name: f.read_bytes() for f in sorted((workdir / "s").iterdir())}
            outputs.append((files, capsys.readouterr()))
            shutil.rmtree(workdir / "s")
        assert pools == ["fork"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cpus, values", [(3, "0.4"), (1, "0.2,0.4,0.6")])
    def test_one_worker_runs_in_process(self, workdir, monkeypatch, cpus, values):
        import multiprocessing

        def no_pool(method):
            raise AssertionError("a one-worker sweep started a pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
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


def test_readme_quick_tour(workdir, capsys):
    """The README's sine.apc and its five commands work as written."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1]
    program = re.search(r"```\n(system sine\n.*?)```", tour, re.S).group(1)
    commands = re.search(r"```sh\n(.*?)```", tour, re.S).group(1).splitlines()
    write(workdir / "sine.apc", program)
    assert len(commands) == 5
    for line in commands:
        argv = shlex.split(line.partition("#")[0])
        assert argv[0] == "apc" and argv[2].startswith("sine."), line
        assert main(argv[1:]) == 0, line
    assert (workdir / "out.csv").read_text().startswith("t,y,y'\n")
    assert "connect INT1.out" in capsys.readouterr().out


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports apc from src/."""
    return subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, check=True).stdout


def test_import_leaves_out_networkx_and_scipy():
    """``import apc`` loads no dependency of the oracle or of the test suite."""
    code = "import sys, apc; print(sorted({'networkx', 'numpy', 'scipy'} & set(sys.modules)))"
    assert fresh_python(code).strip() == "[]"


def test_cli_import_leaves_out_multiprocessing():
    """Only a sweep over several CPUs imports multiprocessing."""
    code = "import apc.cli, sys; print('multiprocessing' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_autoscaled_compile_leaves_out_scipy(tmp_path):
    """The oracle of an autoscaled compile runs on numpy alone."""
    argv = ["compile", str(ROOT / "programs" / "vco.apc"), "--scale", "auto",
            "-o", str(tmp_path / "vco.json")]
    code = ("import sys; from apc.cli import main; code = main(%r); "
            "print(code, 'numpy' in sys.modules, "
            "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))" % argv)
    assert fresh_python(code).splitlines()[-1] == "0 True []"


#: Every name ``apc`` exported when its ``__init__`` still imported every submodule.
PACKAGE_NAMES = [
    "BoundsEstimate", "CompileError", "CompileOptions", "CompileResult", "ConstructionError",
    "Diagnostic", "Element", "Kind", "MachineInstance", "MachineSpec", "Mapping", "Mode",
    "ModeError", "Net", "Netlist", "OdeSystem", "OverloadError", "PatchAssignment",
    "ResourceError", "ScaleMap", "ScalingError", "ScalingViolationError", "SignalBinding",
    "SimConfig", "StructuralError", "THAT", "Trace", "UnscaledCoefficientError",
    "algebraic_loops", "amplitude_scale", "apply_assignment", "autoscale", "compile_system",
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
    scaling re-exports the same objects."""
    from apc import machine, scaling, simulator

    moved = {"Mapping": machine, "SignalBinding": machine, "ParamBinding": machine,
             "ScalingError": machine, "descale_trace": simulator}
    for name, home in moved.items():
        assert getattr(scaling, name) is getattr(home, name)


#: command -> the apc modules besides apc.cli that running it loads.
COMMAND_MODULES = {
    "check": ["apc.dsl"],
    "compile": ["apc.compiler", "apc.dsl", "apc.machine", "apc.scaling"],
    "run": ["apc.machine", "apc.simulator"],
    "run-problem-units": ["apc.machine", "apc.simulator"],
    "sweep": ["apc.machine", "apc.simulator"],
    "map": ["apc.fabric", "apc.machine"],
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(workdir, command):
    sine = compiled(workdir, SINE_SRC, "sine")
    vco = compiled(workdir, VCO_SRC, "vco", ("--scale", "none"))
    argv = {
        "check": ["check", str(workdir / "sine.apc")],
        "compile": ["compile", str(workdir / "sine.apc"), "-o", str(workdir / "c.json")],
        "run": ["run", str(sine), "--trace", str(workdir / "t.csv")],
        "run-problem-units": ["run", str(sine), "--trace", str(workdir / "t.csv"),
                              "--problem-units"],
        "sweep": ["sweep", str(vco), "--param", "k=0.2,0.4", "--tend", "1",
                  "--out", str(workdir / "sweep")],
        "map": ["map", str(sine), "--machine", "that"],
    }[command]
    code = ("import sys; from apc.cli import main; code = main(%r); "
            "print(code, sorted(m for m in sys.modules "
            "if m.startswith('apc.') and m != 'apc.cli'))" % argv)
    assert fresh_python(code).splitlines()[-1] == f"0 {COMMAND_MODULES[command]}"


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
