"""Frozen value records: the one mechanism behind the package's value types.

A ``Record`` subclass names its fields as class annotations, in order, with a
class-level default for each trailing optional one.  Nothing is generated or
compiled per class: ``__init_subclass__`` reads the field names once, and
``__init__`` takes them by position or keyword, writes them into the instance
``__dict__`` with one update and then runs the class's ``__post_init__``
validation.  Records are frozen, so assigning or deleting an attribute raises
``AttributeError``; a ``functools.cached_property`` still stores its value in
the ``__dict__``, outside equality and hashing.  Two records are equal when
they are of one class and their field tuples are equal, a record hashes as
its field tuple, and its repr is ``Name(field=value, ...)``.  ``replace``
builds a copy with some fields changed through ``__init__``, so the copy is
validated again.
"""

from typing import Dict, Tuple, TypeVar

_R = TypeVar("_R", bound="Record")


class Record:
    """Base of the frozen value types; the fields are the subclass's own annotations."""

    _fields: Tuple[str, ...] = ()
    _names: frozenset = frozenset()
    _defaults: Dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **values):
        if len(args) == len(self._fields) and not values:
            values = zip(self._fields, args)
        elif args or values.keys() != self._names:
            values = self._bound(args, values)
        self.__dict__.update(values)
        self.__post_init__()

    def _bound(self, args: tuple, values: dict) -> dict:
        """The fields of a call that mixes positions and keywords or leaves some to their defaults."""
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments but {len(args)} were given")
        for field, value in zip(self._fields, args):
            if field in values:
                raise TypeError(f"{name}() got multiple values for the argument {field!r}")
            values[field] = value
        unknown = sorted(values.keys() - self._names)
        if unknown:
            raise TypeError(f"{name}() got an unexpected argument {unknown[0]!r}")
        missing = [field for field in self._fields if field not in values and field not in self._defaults]
        if missing:
            raise TypeError(f"{name}() is missing the argument {missing[0]!r}")
        return {**self._defaults, **values}

    def __post_init__(self):
        """Validate the fields; a subclass overrides it to check its invariants."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot delete {name!r}")


def replace(obj: _R, **changes) -> _R:
    """A copy of a record with some fields changed, built and validated by ``__init__``."""
    return type(obj)(**dict(zip(obj._fields, obj._values()), **changes))
