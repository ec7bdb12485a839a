"""The base of apc's plain records.

A record lists its fields in ``__slots__`` and takes them, in that
order, as the parameters of its own ``__init__``. The base supplies
what a dataclass would generate, without importing ``dataclasses`` or
running generated code: ``==`` between records of one class over every
field not named in ``_uncompared``, a repr of every field in order,
``Name(field=value, ...)``, and for a ``Frozen`` record a matching hash
and fields that cannot be assigned once ``__init__`` has set them.
"""

#: How a frozen record's ``__init__`` sets a field.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _uncompared = ()  # fields that take no part in == and hash

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._uncompared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
