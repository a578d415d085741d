"""Frozen records: the immutable value classes of the package.

``record`` makes a class whose fields are declared as annotations into a
frozen value class, as ``dataclasses.dataclass(frozen=True)`` would, from
a few closures. Importing ``dataclasses`` pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``, and each dataclass compiles generated source when
it is made; every ``mclain`` process would pay for both.
"""

from __future__ import annotations

from operator import attrgetter


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type | None = None, /, *, eq: bool = True):
    """Make cls a frozen record; use as ``@record`` or ``@record(eq=False)``.

    The fields are the annotations of cls after those of a record base, and
    a field's class attribute, if any, is its default. The record gets
    ``__init__`` by position or keyword, calling ``__post_init__`` when
    there is one; ``repr`` as ``Name(field=value, ...)``; and, unless
    ``eq=False`` keeps identity, ``==`` between records of the same class
    with equal fields and a hash over the fields. Methods cls defines
    itself are kept. Assigning or deleting an attribute raises
    ``AttributeError``; ``functools.cached_property`` writes past that
    check. The field names are kept as ``__match_args__``, as dataclasses
    keep them.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = getattr(cls, "__match_args__", ()) + tuple(cls.__annotations__)
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls.__name__, names, defaults, args, kwargs)
        # Not through self.__dict__: touching it turns CPython's inline
        # attribute values into a dict, and every later field read is slower.
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    values = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    made = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        made.update(__eq__=__eq__, __hash__=__hash__)
    for name, method in made.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    cls.__match_args__ = names
    return cls


def _bind(
    name: str, names: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict
) -> list:
    """The field values of a call that is not one positional per field."""
    if len(args) > len(names):
        raise TypeError(
            f"{name}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = list(args)
    for field in names[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in defaults:
            values.append(defaults[field])
        else:
            raise TypeError(f"{name}() missing required argument: {field!r}")
    for field in kwargs:
        why = "multiple values for" if field in names else "an unexpected keyword"
        raise TypeError(f"{name}() got {why} argument {field!r}")
    return values
