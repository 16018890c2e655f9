"""Immutable records: plain classes whose ``__slots__`` are their fields.

A record class lists its fields in ``__slots__``, in the order they are
passed, compared, hashed and printed, after the fields of its bases.  ``Record.__init__`` takes them by
position or keyword; a class with checks, defaults or a hot constructor sets
them in its own ``__init__`` with ``setfield``.  After that, assigning or
deleting an attribute raises ``AttributeError``.  Equality, hashing and the
repr are those of a frozen PEP 557 class, with no code generated per class:
the standard module that generates it imports ``inspect`` and ``ast`` and
``exec``s six methods for every class, a cost paid in the start-up of every
command.
"""

setfield = object.__setattr__  # past the refusing __setattr__: in __init__ and on restore


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # a subclass's fields follow its bases', as a PEP 557 class's do
        cls._fields = cls._fields + tuple(vars(cls).get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(names)} fields, {len(args)} given")
        for name, value in zip(names, args):
            setfield(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{self.__class__.__qualname__} missing field {name!r}")
            setfield(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{self.__class__.__qualname__} got unexpected or repeated fields {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle restore a slotted object through setattr, which is refused
    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            setfield(self, name, value)
