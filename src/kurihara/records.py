"""Record classes without the dataclasses machinery.

`record` gives a class of annotated fields what `@dataclass` would give it: a
constructor taking the fields in order with their defaults (a
`default_factory` called on each construction), equality over the fields, a
repr of the fields, and with `frozen=True` a hash and no assignment; a
non-frozen record is unhashable.  `replace` copies a record with some fields
changed.  A cache a record fills in is an unannotated class attribute (say
`_table = None`), not a field, so it takes no part in construction, equality
or repr.  Every method is a closure over the class's field table, compiled
with this module: no source is generated or exec'd, and the module imports
only `operator`.

`dataclasses` is not used because of what it costs at start-up: importing it
loads inspect, ast, dis, tokenize and copy, and each class it builds execs
generated source.  Together that was about a fifth of a short run's set-up.
"""

from operator import attrgetter

_MISSING = object()
# Fields are set one by one, not through __dict__: an instance whose __dict__
# has been read keeps its attributes in a plain dict, and every attribute
# load on it costs about twice as much on Python 3.11.
_set = object.__setattr__


class field:
    """A default made anew for each record, as `dataclasses.field(default_factory=...)`."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def _getter(names):
    """obj -> the tuple of its `names` attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def record(cls=None, *, frozen=False):
    """Class decorator: constructor, ==, repr (and hash if frozen) from the fields."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    defaults = {}  # name -> plain default, or the field making one
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, field):
            delattr(cls, name)  # the class keeps a plain default, and no other
        defaults[name] = spec
    names = tuple(defaults)
    values = _getter(names)
    qualname = cls.__qualname__

    def complete(args, kwargs):
        """Every field's value, in order, from the arguments and the defaults."""
        if len(args) > len(names):
            raise TypeError(
                f"{qualname}() takes {len(names)} positional arguments"
                f" but {len(args)} were given"
            )
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in defaults or name in given:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {name!r}")
            given[name] = value
        out = []
        for name, spec in defaults.items():
            if name in given:
                out.append(given[name])
            elif isinstance(spec, field):
                out.append(spec.default_factory())
            elif spec is not _MISSING:
                out.append(spec)
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        return out

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = complete(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__record_fields__ = names
    if not frozen:
        cls.__hash__ = None
        return cls

    def __hash__(self):
        # computed once, as the fields cannot change: a CurveData is hashed
        # on every lookup of the point-count cache
        try:
            return self._record_hash
        except AttributeError:
            h = hash(values(self))
            _set(self, "_record_hash", h)
            return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__hash__, cls.__setattr__, cls.__delattr__ = __hash__, __setattr__, __delattr__
    return cls


def replace(obj, **changes):
    """A new record like `obj` with `changes`, as `dataclasses.replace` makes it.

    Unchanged fields are passed on as they are (not copied); the caches a
    record keeps as class attributes start empty again.
    """
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
