import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apc.fabric import (
    THAT,
    MachineSpec,
    ResourceError,
    apply_assignment,
    load_machine_spec,
    map_netlist,
    patch_instructions,
)
from apc.compiler import CompileOptions, ScaleMap, compile_system
from apc.machine import (AlgebraicLoopError, Netlist, ScalingError, coefficient, load_netlist,
                         reference, save_netlist, summer)
from apc.scaling import autoscale
from apc.simulator import OverloadEvent, SimConfig, new_instance
from conftest import build, compilable_programs, named, resolve_src

#: Room for any program ``compilable_programs`` draws.
ROOMY = MachineSpec("roomy", dict.fromkeys(THAT.inventory, 64))


def six_integrator_src():
    lines = ["system six"]
    for i in range(6):
        lines += [f"var v{i} order 1", f"eq v{i}' = -v{i}", f"init v{i} = 0.5"]
    lines += ["time 1"]
    return "\n".join(lines) + "\n"


class TestMapping:
    def test_sine_fits_that(self, sine):
        _, result = sine
        assignment = map_netlist(result.netlist, THAT)
        assert len(assignment.slot_of) == len(result.netlist.elements)

    def test_assignment_injective_per_kind(self, sine):
        _, result = sine
        assignment = map_netlist(result.netlist, THAT)
        slots = list(assignment.slot_of.values())
        assert len(slots) == len(set(slots))

    def test_six_integrators_rejected_with_exact_deficit(self):
        _, result = build(six_integrator_src())
        with pytest.raises(ResourceError) as err:
            map_netlist(result.netlist, THAT)
        assert err.value.deficits == {"integrator": 1}

    def test_empty_netlist(self):
        assignment = map_netlist(Netlist([]), THAT)
        assert assignment.slot_of == {} and assignment.patches == []

    def test_single_input_summers_prefer_inverter_slots(self, sine):
        _, result = sine
        assignment = map_netlist(result.netlist, THAT)
        inverters = [s for s in assignment.slot_of.values() if s.startswith("INV")]
        assert len(inverters) == 1

    def test_inverter_overflow_spills_to_summer_slots(self):
        elems = [reference("r", 1.0)] + [summer(f"s{i}", ["r"]) for i in range(3)]
        n = Netlist(elems)
        spec = MachineSpec("tiny", {"summer": 2, "inverter": 1})
        assignment = map_netlist(n, spec)
        prefixes = sorted(s.rstrip("0123456789") for e, s in assignment.slot_of.items()
                          if e.startswith("s"))
        assert prefixes == ["INV", "SUM", "SUM"]

    def test_summer_deficit_after_substitution(self):
        elems = [reference("r", 1.0)] + [summer(f"s{i}", ["r"]) for i in range(4)]
        n = Netlist(elems)
        spec = MachineSpec("tiny", {"summer": 1, "inverter": 1})
        with pytest.raises(ResourceError) as err:
            map_netlist(n, spec)
        assert err.value.deficits == {"summer": 2}

    def test_algebraic_loop_rejected(self):
        n = Netlist([summer("s1", ["k"]), summer("s2", ["s1"]),
                     coefficient("k", "s2", 0.5)])
        with pytest.raises(AlgebraicLoopError) as err:
            map_netlist(n, THAT)
        assert err.value.cycles == [["k", "s1", "s2"]]

    def test_monotonicity(self, sine):
        _, result = sine
        bigger = MachineSpec("big", {k: v + 3 for k, v in THAT.inventory.items()})
        map_netlist(result.netlist, THAT)
        map_netlist(result.netlist, bigger)  # fits a fortiori


class TestPatchInstructions:
    def test_deterministic_text(self, sine):
        _, result = sine
        a1 = map_netlist(result.netlist, THAT)
        a2 = map_netlist(result.netlist, THAT)
        assert patch_instructions(a1) == patch_instructions(a2)

    def test_reference_into_coefficient(self):
        n = Netlist(named([reference("r", 1.0), coefficient("k", "r", 0.25)], k="out"))
        text = patch_instructions(map_netlist(n, THAT))
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines == ["connect REFP1.out -> POT1.in1", "set POT1 = 0.25"]

    def test_negative_reference_taps_the_minus_rail(self):
        _, result = build("system t\nvar y order 1\neq y' = -0.5\ninit y = 0\ntime 1\n")
        text = patch_instructions(map_netlist(result.netlist, THAT))
        assert "connect REFN1.out -> POT1.in1" in text.splitlines()
        assert "REFP" not in text

    def test_ordered_by_destination(self, fig2):
        from apc.fabric import _slot_key

        _, result = fig2
        text = patch_instructions(map_netlist(result.netlist, THAT))
        connects = [ln for ln in text.splitlines() if ln.startswith("connect")]
        keys = []
        for ln in connects:
            dst = ln.split("-> ")[1]
            slot, pin = dst.split(".")
            keys.append((_slot_key(slot), int(pin.removeprefix("in"))))
        assert keys == sorted(keys)


class TestSoundness:
    @pytest.mark.parametrize("fixture", ["sine", "fig2"])
    def test_renamed_simulation_identical(self, fixture, request):
        _, result = request.getfixturevalue(fixture)
        assignment = map_netlist(result.netlist, THAT)
        renamed = apply_assignment(result.netlist, assignment)
        cfg = SimConfig(dt=1e-3)
        t1 = new_instance(result.netlist, cfg).run(1.0)
        t2 = new_instance(renamed, cfg).run(1.0)
        assert t1.series == t2.series and t1.tau == t2.tau

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(compilable_programs(), st.sampled_from([0.0, 1e-3, 0.6]))
    def test_trace_is_identical_after_placement(self, src, resolution):
        """Renaming every element to its slot changes no sample, and the
        overload log only by the slot names."""
        _, result = build(src)
        assignment = map_netlist(result.netlist, ROOMY)
        renamed = apply_assignment(result.netlist, assignment)
        config = SimConfig(dt=0.05, resolution=resolution)
        before = new_instance(result.netlist, config).run(1.0)
        after = new_instance(renamed, config).run(1.0)
        assert repr((after.tau, after.series)) == repr((before.tau, before.series))
        slot = assignment.slot_of
        assert repr(after.overloads) == repr(
            [OverloadEvent(ev.time, slot[ev.element], ev.magnitude) for ev in before.overloads])


def assert_file_round_trips(netlist, path: Path):
    """The file of ``netlist`` reads back to the same elements, names and
    outputs, and writes the same bytes again."""
    save_netlist(netlist, path)
    written = path.read_bytes()
    back = load_netlist(path)
    assert list(back.elements.items()) == list(netlist.elements.items())
    assert (back.names, back.outputs) == (netlist.names, netlist.outputs)
    save_netlist(back, path)
    assert path.read_bytes() == written


@settings(max_examples=100, deadline=None, derandomize=True)
@given(compilable_programs())
def test_netlist_files_round_trip(src):
    """Under both scalings, and after placement renames each element."""
    system = resolve_src(src)
    scales = [ScaleMap.identity()]
    try:
        scales.append(autoscale(system))
    except ScalingError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        for scale in scales:
            netlist = compile_system(system, CompileOptions(scale=scale)).netlist
            for n in (netlist, apply_assignment(netlist, map_netlist(netlist, ROOMY))):
                assert_file_round_trips(n, Path(tmp) / "n.json")


class TestSpecLoading:
    def test_builtin(self):
        assert load_machine_spec("that") is THAT
        assert THAT.inventory["integrator"] == 5
        assert THAT.inventory["summer"] == 4
        assert THAT.inventory["inverter"] == 4
        assert THAT.inventory["multiplier"] == 2
        assert THAT.inventory["coefficient"] == 8

    def test_json_file(self, tmp_path):
        doc = {"name": "mini", "inventory": {"integrator": 2, "summer": 1}, "crossbar": "full"}
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(doc))
        spec = load_machine_spec(str(path))
        assert spec.name == "mini" and spec.count("integrator") == 2

    def test_unknown_inventory_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "inventory": {"comparator": 2}}))
        with pytest.raises(ValueError):
            load_machine_spec(str(path))
        # json_object rejects the key above; a spec built in code meets this check.
        with pytest.raises(ValueError, match=re.escape("unknown inventory kind(s) ['bogus']")):
            MachineSpec("x", {"bogus": 1})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "inventory": {}, "color": "red"}))
        with pytest.raises(ValueError):
            load_machine_spec(str(path))

    @pytest.mark.parametrize("doc", [[], {"inventory": {}}, {"name": "x", "inventory": []},
                                     {"name": "x", "inventory": {"integrator": "2"}},
                                     {"name": "x", "inventory": {"integrator": math.inf}},
                                     {"name": "x", "inventory": {"summer": math.nan}},
                                     {"name": "x", "inventory": {"coefficient": 2.5}}])
    def test_malformed_spec_raises_value_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_machine_spec(str(path))

    def test_partitioned_crossbar_rejected(self, tmp_path):
        path = tmp_path / "banyan.json"
        path.write_text(json.dumps({"name": "x", "inventory": {}, "crossbar": "banyan"}))
        with pytest.raises(ValueError, match="^only full crossbars are modeled$"):
            load_machine_spec(str(path))
