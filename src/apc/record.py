"""The base of apc's plain records.

A record lists its fields in ``__slots__``. The base supplies what a
dataclass would generate, without importing ``dataclasses`` or running
generated code: a constructor that takes the fields in ``__slots__``
order, positionally or by keyword, with an omitted field taken from the
class's ``_defaults``; ``==`` between records of one class over every
field not named in ``_uncompared``; a repr of every field in order,
``Name(field=value, ...)``; and for a ``Frozen`` record a matching hash
and fields that cannot be assigned once constructed. A record that
checks or converts its input writes its own ``__init__``, which ends in
``super().__init__`` with every field.
"""

#: How the constructor sets a field, frozen or not.
set_field = object.__setattr__


class _Signature:
    """A record class's ``__signature__``: its fields in order with their
    defaults, built only when ``inspect`` asks. None where the class
    writes its own ``__init__``, so that ``inspect`` reads that."""

    def __get__(self, record, cls):
        if cls.__init__ is not Record.__init__:
            return None
        from inspect import Parameter, Signature  # deferred: only introspection needs it
        return Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                                    default=cls._defaults.get(name, Parameter.empty))
                          for name in cls.__slots__])


class Record:
    __slots__ = ()
    _uncompared = ()  # fields that take no part in == and hash
    _defaults = {}  # field -> value an omitted argument takes
    __signature__ = _Signature()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that is not every field positionally."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments ({', '.join(names)}) "
                            f"but {len(args)} were given")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values = {**cls._defaults, **given, **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required argument(s): {', '.join(map(repr, missing))}")
        return [values[name] for name in names]

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

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
