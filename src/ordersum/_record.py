"""The bases of the library's record classes.

A FrozenRecord subclass names its fields, in order, as its typed
annotations; a subclass that annotates nothing keeps its parent's fields.
Those annotations are the one list of a record's fields: the base reads
them here, and the checkpoint codec reads them to write and to read a
record.  A record is built from positional or keyword field values,
compares and hashes by field value (never equal to an instance of another
class), shows every field in its repr, refuses assignment and deletion,
and pickles by passing its field values back to the constructor, which
also lets it cross the pipes of the sweep's forked worker lanes.  Its
instances keep their fields in a __dict__, as a plain object does.  It
needs no import of dataclasses, which costs milliseconds at every start
of the command line.

The constructor runs the subclass's _check hook, so a record built from
outside values is always valid.  FrozenRecord._unchecked(*values) is the
one trusted constructor: it sets the fields, in annotation order as
__reduce__ passes them, and runs neither __init__ nor _check.  Use it only
where the calling module has just checked, or made by construction, every
rule that _check would check again; every call across a public boundary
goes through the validating constructor.

A MutableRecord subclass writes its own __init__; its fields are the
attributes that sets, and it compares and shows them the same way but is
not hashable.
"""


class FrozenRecord:
    """Immutable record whose fields are its annotations, in order."""

    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *args, **kwargs) -> None:
        names = type(self)._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            args += (kwargs.pop(name),)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or "
                            f"repeated fields {sorted(kwargs)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Validate the fields once they are set; raise ValueError if bad."""

    @classmethod
    def _unchecked(cls, *values):
        """The record of values that __init__ keeps and _check accepts."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(record, name, value)
        return record

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in type(self)._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return _fields_repr(self, zip(type(self)._fields, self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class MutableRecord:
    """Mutable record whose fields are its instance attributes."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def __repr__(self) -> str:
        return _fields_repr(self, vars(self).items())


def _fields_repr(obj, items) -> str:
    """'Name(field=value, ...)' for obj's class and (field, value) pairs."""
    fields = ", ".join(f"{name}={value!r}" for name, value in items)
    return f"{type(obj).__qualname__}({fields})"
