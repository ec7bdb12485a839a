"""The plain records: equality, hashing, repr, immutability and constructors."""

import ast
import copy
import dataclasses
import inspect
import pickle
import re
import subprocess
import sys
from collections import Counter

import pytest

from apc import compiler, dsl, fabric, machine, scaling, simulator
from apc.dsl import Bin, Call, Decl, Neg, Num, OutputDecl, Ref, TableDecl, TimeDecl, VarDecl
from apc.machine import Element, Kind, Netlist, ParamBinding, SignalBinding, Violation, summer
from apc.record import Frozen, Record
from apc.simulator import ConstructionError, OverloadEvent, SimConfig, Trace, new_instance
from conftest import ROOT, resolve_src, src_env

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
    Element("e", Kind.SUMMER, {}, ("n",)), Violation("e", "arity", "m"),
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


#: The records that check or convert their input, each in its own ``__init__``.
CHECKING = {Element, compiler.ScaleMap, SimConfig, fabric.MachineSpec, fabric.PatchAssignment}

#: The records, bases without fields aside, built by the base constructor alone.
PLAIN = [cls for cls in RECORDS if cls.__slots__ and cls not in CHECKING]


def _fields(cls) -> dict:
    """A distinct stand-in value for each field of ``cls``."""
    return {name: f"{name}-value" for name in cls.__slots__}


def test_only_the_checking_records_write_a_constructor():
    """The rest store their arguments, which ``Record.__init__`` does once."""
    assert {cls for cls in RECORDS if "__init__" in vars(cls)} == CHECKING


def test_only_the_base_sets_fields():
    found = []
    for path in sorted(set((ROOT / "src" / "apc").glob("*.py")) - {ROOT / "src" / "apc" / "record.py"}):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name == "set_field"]
    assert found == []


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls):
    fields = _fields(cls)
    record = cls(*fields.values())
    assert record == cls(**fields) and [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_an_omitted_field_takes_its_default(cls):
    assert set(cls._defaults) <= set(cls.__slots__)
    record = cls(**{name: value for name, value in _fields(cls).items() if name not in cls._defaults})
    assert {name: getattr(record, name) for name in cls._defaults} == cls._defaults
    assert {name: p.default for name, p in inspect.signature(cls).parameters.items()
            if p.default is not p.empty} == cls._defaults


@pytest.mark.parametrize("cls", [cls for cls in PLAIN if set(cls.__slots__) - set(cls._defaults)],
                         ids=lambda cls: cls.__name__)
def test_a_missing_field_is_named(cls):
    fields = _fields(cls)
    name = next(name for name in cls.__slots__ if name not in cls._defaults)
    del fields[name]
    with pytest.raises(TypeError, match=f"{cls.__name__}.*missing.*'{name}'"):
        cls(**fields)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_a_wrong_call_is_named(cls):
    fields = _fields(cls)
    values, first = list(fields.values()), cls.__slots__[0]
    with pytest.raises(TypeError, match=f"{cls.__name__}.*unexpected keyword argument 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"{cls.__name__}.*multiple values for argument '{first}'"):
        cls(*values, **{first: 1})
    with pytest.raises(TypeError, match=re.escape(f"{cls.__name__}() takes {len(values)} arguments "
                                                  f"({', '.join(fields)}) but {len(values) + 1}")):
        cls(*values, 1)


def test_construction_and_repr_load_no_inspect():
    """``inspect`` builds a record's signature only when asked for one."""
    code = ("import sys\nfrom apc import machine, simulator\n"
            "repr([machine.SignalBinding('a', 1), machine.SignalBinding(net='a', parity=1),\n"
            "      machine.Mapping({}, {}),\n"
            "      simulator.Trace([], {}, []), simulator.SimConfig()])\n"
            "print('inspect' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"


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
    assert Violation("e", "arity", "m") != ("e", "arity", "m")
    assert OverloadEvent(0.5, "e", 1.2) != (0.5, "e", 1.2)
    assert dsl.Diagnostic(1, 1, "m") != (1, 1, "m")
    assert SignalBinding("n", 1, 0.5) != ParamBinding("n", 1, 0.5)
    assert Num(1.0) != Ref(1.0)
    assert Violation("e", "arity", "m") == Violation("e", "arity", "m")
    assert OverloadEvent(0.5, "e", 1.2) == OverloadEvent(0.5, "e", 1.2)


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
        new_instance(Netlist([summer("s", [])], outputs=("y",)))
    assert str(info.value) == ("netlist does not validate: s: arity: summer takes 1..N inputs, "
                               "got 0; missing-output: output 'y' names no net")


def test_ode_system_stays_a_dataclass_for_replace():
    """Callers copy a resolved system with new parameter values."""
    system = resolve_src("system s\nparam k = 0.5\nvar y order 1\neq y' = -k*y\ninit y = 1\ntime 1\n")
    changed = dataclasses.replace(system, params={**system.params, "k": 0.25})
    assert (changed.params, system.params) == ({"k": 0.25}, {"k": 0.5})
    assert dataclasses.replace(changed, params=system.params) == system
