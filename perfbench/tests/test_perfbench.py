"""The benchmark's own tests: seeded inputs are reproducible and every check
rejects a corrupted output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CliSamples, Context, SweepVco, strata  # noqa: E402

SINE = (ROOT / "programs" / "sine.apc").read_text(encoding="utf-8")


def test_strata_draws_one_value_per_slice():
    import random

    values = strata(random.Random(1), 10, 0.1, 1.0)
    assert [int((v - 0.1) / 0.09) for v in sorted(values)] == list(range(10))
    assert values != sorted(values)


@pytest.mark.parametrize("workload", [CliSamples, SweepVco])
def test_seeded_inputs_repeat(workload, tmp_path):
    def inputs(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        w = workload()
        w.prepare(Context(ROOT, work, seed, {}))
        return vars(w), sorted(p.name for p in work.iterdir())

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "c") != inputs(6, "d")


@pytest.fixture
def sine_trace(tmp_path):
    """A problem-unit sine trace on disk and its oracle reference."""
    from apc import (CompileOptions, SimConfig, autoscale, compile_system, descale_trace,
                     new_instance, parse, resolve)
    from workloads import _reference

    (tmp_path / "sine.apc").write_text(SINE, encoding="utf-8")
    system, _ = resolve(parse(SINE)[0])
    result = compile_system(system, CompileOptions(scale=autoscale(system)))
    trace = new_instance(result.netlist, SimConfig(dt=1e-3, sample_every=10)).run(
        result.mapping.horizon_machine)
    path = tmp_path / "sine.csv"
    descale_trace(trace, result.mapping).save(path, tmp_path / "sine.overloads.csv")
    t, _ = checks.read_trace(path)
    return path, _reference(tmp_path / "sine.apc", t)


def test_oracle_check_rejects_corrupted_trace(sine_trace):
    path, reference = sine_trace
    _, series = checks.read_trace(path)
    assert checks.oracle_error(series, reference) <= checks.TOLERANCE
    series["y"][len(series["y"]) // 2] += 0.01
    assert checks.oracle_error(series, reference) > checks.TOLERANCE
    del series["y"]
    assert checks.oracle_error(series, reference) > checks.TOLERANCE


def test_descale_uses_parity_scale_and_lambda():
    mapping = {"lambda": 2.0, "signals": {"y": {"parity": -1, "amplitude_scale": 5.0}}}
    t, series = checks.descale([0.0, 0.5], {"y": [0.1, -0.2]}, mapping)
    assert t == [0.0, 1.0] and series == {"y": [-0.5, 1.0]}


def test_vco_check_rejects_corrupted_trace():
    k = checks.pot_value(0.3, 1.0)
    tau = [0.01 * i for i in range(3001)]
    good = checks.vco_reference(tau, k)
    assert checks.relative_error(good, checks.vco_reference(tau, k)) == 0.0
    bad = list(good)
    bad[-1] += 1e-3
    assert checks.relative_error(bad, checks.vco_reference(tau, k)) > checks.TOLERANCE
    # The unrounded k is off the pot grid and drifts out of tolerance.
    assert checks.relative_error(checks.vco_reference(tau, 0.3 + 1e-4), good) > checks.TOLERANCE


def test_overload_check_rejects_missing_or_false_records(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("time,element,magnitude\n1.0,int2,1.01\n1.1,int2,1.02\n", encoding="utf-8")
    records = checks.read_overloads(path)
    assert checks.overload_problem(records, 2) == ""
    assert checks.overload_problem(records[:1], 2)
    assert checks.overload_problem(records[:1] + [(1.1, "int2", 0.99)], 2)


def test_patch_check_rejects_missing_connection():
    netlist = {"elements": [{"id": "a", "kind": "coefficient", "inputs": ["b"]},
                            {"id": "b", "kind": "integrator", "inputs": ["a"]}]}
    text = "# patch list\nconnect INT1.out -> POT1.in1\nconnect POT1.out -> INT1.in1\nset POT1 = 0.5\n"
    assert checks.patch_problem(text, netlist) == ""
    assert checks.patch_problem(text.replace("connect POT1.out -> INT1.in1\n", ""), netlist)


def test_fingerprint_changes_with_one_byte(sine_trace, tmp_path):
    path, _ = sine_trace
    before = checks.sha256(path)
    data = bytearray(path.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    assert checks.sha256(path) != before


def test_exit_check():
    assert checks.exit_problem(4, 4) == ""
    assert checks.exit_problem(1, 0, "apc: usage: nope\n") == "exit 1, expected 0 apc: usage: nope"


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(list(range(19))) == (18, 100.0)


def test_parse_importtime_sums_outermost_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |     scipy.integrate",
        "import time:        50 |        50 |     numpy",
        "import time:        10 |       760 |   apc.scaling",
        "import time:         5 |       765 | apc",
    ])
    times = run.parse_importtime(stderr)
    assert times == {"apc": 765e-6, "scipy": 700e-6, "networkx": 0.0, "numpy": 50e-6}


def test_self_time_subtracts_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 5.0}, {"start": 9.0, "end": 12.0}]
    assert tracing.self_time(parent, kids) == pytest.approx(5.0)


def test_install_records_calls_and_uninstall_restores():
    import apc.machine
    import apc.simulator
    from apc import compile_system, resolve

    original = apc.simulator.evaluation_order
    recorder = tracing.Recorder("op")
    uninstall = tracing.install(recorder)
    try:
        system, _ = resolve(apc.dsl.parse(SINE)[0])
        apc.simulator.new_instance(compile_system(system).netlist)
    finally:
        uninstall()
    assert apc.simulator.evaluation_order is original is apc.machine.evaluation_order
    names = {s["name"]: s for s in recorder.spans}
    assert names["dsl.parse"]["counts"] == {"lines": len(SINE.splitlines())}
    assert names["machine.evaluation_order"]["parent"] == names["simulator.new_instance"]["id"]
    json.dumps(recorder.spans)
