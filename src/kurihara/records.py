"""Record classes without the dataclasses machinery.

`record` gives a class of annotated fields what `@dataclass` would give it: a
constructor taking the fields in order with their defaults (a
`default_factory` called on each construction), equality over the compared
fields, a repr of the shown fields, and with `frozen=True` a hash and no
assignment; a non-frozen record is unhashable.  `replace` copies a record
with some fields changed.  Every method is a closure over the class's field
table, compiled with this module: no source is generated or exec'd, and the
module imports only `operator`.

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
    """A field's default and flags, as `dataclasses.field` takes them."""

    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, default_factory=None, init=True,
                 repr=True, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def _getter(names):
    """obj -> the tuple of its `names` attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def record(cls=None, *, frozen=False):
    """Class decorator: constructor, ==, repr (and hash if frozen) from the fields."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    specs = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, field):
            # the class keeps a plain default as its attribute, and no other
            if spec.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, spec.default)
        else:
            spec = field(default=spec)
        specs.append((name, spec))
    names = tuple(name for name, _ in specs)
    init_names = tuple(name for name, spec in specs if spec.init)
    every = len(names) if init_names == names else -1  # arity of the fast path
    compared = _getter([name for name, spec in specs if spec.compare])
    shown = [name for name, spec in specs if spec.repr]
    shown_values = _getter(shown)
    qualname = cls.__qualname__

    def complete(args, kwargs):
        """Every field's value, in order, from the arguments and the defaults."""
        if len(args) > len(init_names):
            raise TypeError(
                f"{qualname}() takes {len(init_names)} positional arguments"
                f" but {len(args)} were given"
            )
        values = dict(zip(init_names, args))
        for name, value in kwargs.items():
            if name not in init_names or name in values:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        out = []
        for name, spec in specs:
            if name in values:
                out.append(values[name])
            elif spec.default is not _MISSING:
                out.append(spec.default)
            elif spec.default_factory is not None:
                out.append(spec.default_factory())
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        return out

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != every:
            args = complete(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(shown, shown_values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__record_init__ = init_names
    if not frozen:
        cls.__hash__ = None
        return cls

    def __hash__(self):
        # computed once, as the fields cannot change: a CurveData is hashed
        # on every lookup of the point-count cache
        try:
            return self._record_hash
        except AttributeError:
            h = hash(compared(self))
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

    Unchanged fields are passed on as they are (not copied); fields outside
    the constructor take their defaults again.
    """
    for name in obj.__record_init__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
