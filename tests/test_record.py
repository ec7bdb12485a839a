"""The plain records: equality, hashing, repr, immutability and constructors."""

import copy
import dataclasses
import inspect
import pickle
from collections import Counter

import pytest

from apc import compiler, dsl, fabric, machine, scaling, simulator
from apc.dsl import Bin, Call, Decl, Neg, Num, OutputDecl, Ref, TableDecl, TimeDecl, VarDecl
from apc.machine import Element, Kind, Net, Netlist, ParamBinding, SignalBinding, Violation, summer
from apc.record import Frozen, Record
from apc.simulator import ConstructionError, OverloadEvent, SimConfig, Trace, new_instance
from conftest import resolve_src

#: Every record class of the package.
RECORDS = [cls for module in (compiler, dsl, fabric, machine, scaling, simulator)
           for cls in vars(module).values()
           if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == module.__name__]

#: One instance of each frozen record.
FROZEN = [
    dsl.Diagnostic(1, 2, "m"), Num(1.0), Ref("y", 1), Bin("+", Num(1.0), Num(2.0)), Neg(Num(1.0)),
    Call("sin", (Num(1.0),)), Decl("eq", "y", 1, Num(1.0)), VarDecl("y", 1),
    TableDecl("f", ((0.0, 0.0), (1.0, 1.0))), TimeDecl(Num(1.0)), OutputDecl((("y", 0),)),
    dsl.Program("s", ()), dsl.Token("num", "1", 1, 1), machine.KINDS[Kind.SUMMER],
    Element("e", Kind.SUMMER, {}, ("n",)), Net("e"), Violation("e", "arity", "m"),
    SignalBinding("n", 1), ParamBinding("e", 1.0, 0.5), SimConfig(), OverloadEvent(0.5, "e", 1.2),
    scaling.BoundsEstimate({}, {}), compiler.ScaleMap(), compiler.CompileOptions(), fabric.THAT,
]


def test_every_record_is_listed():
    frozen = {type(r) for r in FROZEN}
    assert {cls for cls in RECORDS if issubclass(cls, Frozen) and cls.__slots__} == frozen


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_in_order(cls):
    """Positional and keyword construction, and the repr, share one field order."""
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)


@pytest.mark.parametrize("a, b", [
    (Num(1.5, 1, 2), Num(1.5, 3, 4)),
    (Ref("y", 1, 1, 2), Ref("y", 1)),
    (Bin("*", Num(2.0, 1, 1), Ref("y", 0, 1, 5), 1, 3), Bin("*", Num(2.0), Ref("y"))),
    (Neg(Num(1.0, 2, 2), 2, 1), Neg(Num(1.0))),
    (Call("lut", (Ref("f", 0, 1, 5), Ref("y", 0, 1, 7)), 1, 1), Call("lut", (Ref("f"), Ref("y")))),
    (Decl("eq", "y", 1, Num(1.0, 3, 9), 3), Decl("eq", "y", 1, Num(1.0))),
    (VarDecl("y", 2, 4), VarDecl("y", 2)),
    (TimeDecl(Num(1.0, 5, 6), 5), TimeDecl(Num(1.0))),
], ids=["num", "ref", "bin", "neg", "call", "decl", "var", "time"])
def test_ast_equality_and_hash_ignore_locations(a, b):
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("a, b", [
    (Num(1.5), Num(2.5)), (Ref("y", 1), Ref("y", 2)), (Decl("eq", "y", 1, Num(1.0)),
                                                       Decl("init", "y", 1, Num(1.0))),
], ids=["num", "ref", "decl"])
def test_ast_equality_compares_every_other_field(a, b):
    assert a != b


def test_records_never_equal_a_tuple_or_another_class():
    assert Net("a", "y") != ("a", "y")
    assert OverloadEvent(0.5, "e", 1.2) != (0.5, "e", 1.2)
    assert dsl.Diagnostic(1, 1, "m") != (1, 1, "m")
    assert SignalBinding("n", 1, 0.5) != ParamBinding("n", 1, 0.5)
    assert Num(1.0) != Ref(1.0)
    assert Net("a", "y") == Net("a", "y") and OverloadEvent(0.5, "e", 1.2) == OverloadEvent(0.5, "e", 1.2)


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_a_frozen_record_rejects_assignment(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1  # slots: no other attribute either


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_a_frozen_record_survives_copy_and_pickle(record):
    clones = [copy.copy(record), copy.deepcopy(record)]
    if not isinstance(record, machine.KindSpec):  # its output is a lambda, which pickle refuses
        clones.append(pickle.loads(pickle.dumps(record)))
    for clone in clones:
        assert type(clone) is type(record) and repr(clone) == repr(record)


def test_mutable_records_stay_mutable_and_unhashable():
    trace = Trace([0.0], {"y": [0.5]}, [])
    trace.time_label = "t"
    term = compiler._Term(1.0, Counter(), [])
    term.coeff += 1.0
    assert (trace.time_label, term.coeff) == ("t", 2.0)
    for record in (trace, term, machine.Mapping({}, {}), fabric.PatchAssignment("that", {})):
        with pytest.raises(TypeError):
            hash(record)


def test_defaults_are_fresh_per_instance():
    assert Element("a", Kind.SUMMER).params == {} and Element("a", Kind.SUMMER).inputs == ()
    assert Element("a", Kind.SUMMER).params is not Element("b", Kind.SUMMER).params
    assert compiler.ScaleMap().amplitude is not compiler.ScaleMap().amplitude
    first, second = fabric.PatchAssignment("that", {}), fabric.PatchAssignment("that", {})
    assert first.patches == [] and first.patches is not second.patches


def test_repr_reads_as_a_dataclass_repr():
    assert repr(Num(1.0, 2, 3)) == "Num(value=1.0, line=2, column=3)"
    assert repr(Violation("k", "arity", "m")) == "Violation(element='k', rule='arity', message='m')"
    assert repr(OverloadEvent(0.5, "int1", 1.25)) == "OverloadEvent(time=0.5, element='int1', magnitude=1.25)"
    assert repr(Decl("eq", "y", 1, Neg(Ref("y", 0, 3, 9), 3, 8), 3)) == (
        "Decl(keyword='eq', name='y', order=1, expr=Neg(operand=Ref(name='y', order=0, line=3, "
        "column=9), line=3, column=8), line=3)")


def test_construction_error_shows_each_violation():
    """Each violation reaches stderr through ConstructionError as
    ``element: rule: message``, without an empty element."""
    with pytest.raises(ConstructionError) as info:
        new_instance(Netlist.from_elements([summer("s", [])], outputs={"y": "gone"}))
    assert str(info.value) == ("netlist does not validate: s: arity: summer takes 1..N inputs, "
                               "got 0; missing-output: output 'y' names no net")


def test_ode_system_stays_a_dataclass_for_replace():
    """Callers copy a resolved system with new parameter values."""
    system = resolve_src("system s\nparam k = 0.5\nvar y order 1\neq y' = -k*y\ninit y = 1\ntime 1\n")
    changed = dataclasses.replace(system, params={**system.params, "k": 0.25})
    assert (changed.params, system.params) == ({"k": 0.25}, {"k": 0.5})
    assert dataclasses.replace(changed, params=system.params) == system
