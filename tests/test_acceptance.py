"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from apc import (
    THAT,
    CompileOptions,
    ResourceError,
    SimConfig,
    apply_assignment,
    compile_system,
    descale_trace,
    map_netlist,
    new_instance,
    reference_solution,
)
from apc.compiler import NetlistBuilder  # noqa: F401  (import check of public surface)
from apc.compiler import ScaleMap
from apc.machine import Netlist, integrator, reference
from apc.scaling import autoscale
from apc.simulator import LEGAL_TRANSITIONS, Mode, ModeError
from conftest import SINE5_SRC, SINE_SRC, UNSTABLE_SRC, FIG2_SRC, build, named, resolve_src, src_env

PHI = math.pi / 6


@contextmanager
def report(number: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    else:
        print(f"PASS criterion {number}: {description} ({time.perf_counter() - t0:.2f}s)")


def ramp(k0):
    elems = [reference("one", 1.0), integrator("i", ["one"], ic=0.0, k0=k0)]
    return Netlist(named(elems, i="out"))


def test_criterion_1_integrator_law():
    with report(1, "integrator reaches -1 from +1 input after 1/k0 seconds"):
        t0 = time.perf_counter()
        trace = new_instance(ramp(1.0), SimConfig(dt=1e-4)).run(1.0)
        assert abs(trace.series["out"][-1] - (-1.0)) <= 1e-6
        trace = new_instance(ramp(1000.0), SimConfig(dt=1e-4)).run(1e-3)
        assert abs(trace.series["out"][-1] - (-1.0)) <= 1e-6
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_worked_example_fidelity():
    with report(2, "compiled oscillator follows sin(tau + pi/6) at stated tolerances"):
        t0 = time.perf_counter()
        _, result = build(SINE_SRC)

        ideal = new_instance(result.netlist, SimConfig(dt=5e-3)).run(2 * math.pi)
        err = max(abs(y - math.sin(t + PHI)) for t, y in zip(ideal.tau, ideal.series["y"]))
        assert err <= 1e-4, f"ideal-mode error {err}"

        rough = new_instance(result.netlist, SimConfig(dt=5e-3, resolution=1e-4)).run(2 * math.pi)
        err = max(abs(y - math.sin(t + PHI)) for t, y in zip(rough.tau, rough.series["y"]))
        assert err <= 5e-3, f"quantized-mode error {err}"
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_fig2_dataflow():
    with report(3, "x = a(b+c) settles at 0.2500 with one multiplier and one summer"):
        _, result = build(FIG2_SRC)
        counts = result.netlist.counts()
        assert counts["multiplier"] == 1
        assert counts.get("summer", 0) == 1 and "inverter" not in counts

        # x rides at its net's native parity; the sidecar gives its sign
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        x = descale_trace(inst.run(0.01), result.mapping).series["x"]
        assert abs(x[-1] - 0.25) <= 1e-12

        eps = 1e-4
        inst = new_instance(result.netlist, SimConfig(dt=1e-3, resolution=eps))
        x = descale_trace(inst.run(0.01), result.mapping).series["x"]
        assert abs(x[-1] - 0.25) <= eps


def test_criterion_4_energy_conservation():
    with report(4, "oscillator energy constant to 1e-3 over 10 periods"):
        _, result = build(SINE_SRC)
        cfg = SimConfig(dt=1e-4, sample_every=100)
        trace = new_instance(result.netlist, cfg).run(20 * math.pi)
        energy = [y * y + v * v for y, v in zip(trace.series["y"], trace.series["y'"])]
        assert max(energy) - min(energy) <= 1e-3


def test_criterion_5_scaling_round_trip(tmp_path):
    with report(5, "autoscaled big-amplitude run descales onto the oracle"):
        system = resolve_src(SINE5_SRC)
        scale = autoscale(system)
        result = compile_system(system, CompileOptions(scale=scale))
        inst = new_instance(result.netlist, SimConfig(dt=1e-3))
        trace = inst.run(result.mapping.horizon_machine)

        assert trace.overloads == [], "scaled run must not overload"
        peak = max(max(abs(v) for v in s) for s in trace.series.values())
        assert peak >= 0.5, "at least one signal must use half the interval"

        problem = descale_trace(trace, result.mapping)
        oracle = reference_solution(system, t_eval=np.asarray(problem.tau))
        ref = oracle.signals[("y", 0)]
        err = np.max(np.abs(np.array(problem.series["y"]) - ref))
        assert err <= 1e-3 * np.max(np.abs(ref)), f"relative error {err}"

    with report(5, "unscaled strict run of the unstable variant exits with overload status"):
        from apc.cli import main

        src = tmp_path / "boom.apc"
        src.write_text(UNSTABLE_SRC, encoding="utf-8")
        out = tmp_path / "boom.json"
        assert main(["compile", str(src), "--scale", "none", "-o", str(out)]) == 0
        code = main(["run", str(out), "--tend", "3", "--dt", "1e-3", "--strict-overload"])
        assert code == 5


def test_criterion_6_time_scale_equivalence():
    with report(6, "k0=1 and k0=1000 traces agree sample for sample"):
        slow = compile_system(resolve_src(SINE_SRC), CompileOptions(scale=ScaleMap.identity(1.0)))
        fast = compile_system(resolve_src(SINE_SRC), CompileOptions(scale=ScaleMap.identity(1000.0)))
        t1 = new_instance(slow.netlist, SimConfig(dt=1e-4, sample_every=100)).run(2 * math.pi)
        t2 = new_instance(fast.netlist, SimConfig(dt=1e-7, sample_every=100)).run(2 * math.pi * 1e-3)
        assert len(t1.tau) == len(t2.tau), "matched step counts"
        for name in ("y", "y'"):
            worst = max(abs(a - b) for a, b in zip(t1.series[name], t2.series[name]))
            assert worst <= 1e-6, f"{name} deviates by {worst}"


def test_criterion_7_fabric_mapping():
    with report(7, "sine fits THE ANALOG THING; six integrators are one too many"):
        _, result = build(SINE_SRC)
        assignment = map_netlist(result.netlist, THAT)

        lines = ["system six"]
        for i in range(6):
            lines += [f"var v{i} order 1", f"eq v{i}' = -v{i}", f"init v{i} = 0.5"]
        lines += ["time 1"]
        _, six = build("\n".join(lines) + "\n")
        with pytest.raises(ResourceError) as err:
            map_netlist(six.netlist, THAT)
        assert err.value.deficits == {"integrator": 1}

        renamed = apply_assignment(result.netlist, assignment)
        cfg = SimConfig(dt=1e-3)
        t1 = new_instance(result.netlist, cfg).run(2.0)
        t2 = new_instance(renamed, cfg).run(2.0)
        assert t1.series == t2.series and t1.tau == t2.tau, "renamed trace identical"


def test_criterion_8_mode_machine():
    with report(8, "exactly the specified mode-transition table is accepted"):
        rng = random.Random(20230601)
        modes = [Mode.IC, Mode.OP, Mode.HALT]
        for _ in range(300):
            inst = new_instance(ramp(1.0), SimConfig(dt=1e-3))
            current = Mode.IC
            for _ in range(rng.randint(1, 8)):
                target = rng.choice(modes)
                if (current, target) in LEGAL_TRANSITIONS:
                    inst.set_mode(target)
                    current = target
                else:
                    try:
                        inst.set_mode(target)
                    except ModeError:
                        pass
                    else:
                        raise AssertionError(f"{current}->{target} must be rejected")
                assert inst.mode is current

    with report(8, "OP -> HALT -> OP produces a continuous trace"):
        _, result = build(SINE_SRC)
        dt = 1e-3
        inst = new_instance(result.netlist, SimConfig(dt=dt))
        inst.run(1.0)
        frozen = inst.value("y")
        inst.set_mode(Mode.OP)
        inst.step(dt)
        jump = abs(inst.value("y") - frozen)
        assert jump <= 2 * dt, "no sample jump beyond one step's motion"

        fresh = new_instance(result.netlist, SimConfig(dt=dt))
        whole = fresh.run(1.0 + dt)
        assert whole.series["y"][-1] == inst.value("y"), "resume is bit-identical"


def test_criterion_9_cli_determinism(tmp_path):
    with report(9, "two identical runs produce byte-identical CSV files"):
        src = tmp_path / "sine.apc"
        src.write_text(SINE_SRC, encoding="utf-8")
        netlist = tmp_path / "sine.json"
        env_cmd = [sys.executable, "-m", "apc"]
        subprocess.run([*env_cmd, "compile", str(src), "--scale", "none",
                        "-o", str(netlist)], check=True, capture_output=True, env=src_env())
        outputs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"{tag}.csv"
            proc = subprocess.run(
                [*env_cmd, "run", str(netlist), "--tend", "6.2832", "--dt", "1e-3",
                 "--resolution", "1e-4", "--trace", str(trace)],
                check=True, capture_output=True, env=src_env())
            outputs.append((trace.read_bytes(),
                            (tmp_path / f"{tag}.overloads.csv").read_bytes(),
                            proc.stdout))
        assert outputs[0] == outputs[1]
