"""Exception hierarchy shared by all relqkd modules, the integer and float
checks, and ``frozen``, the decorator of every record class."""

import dataclasses
import numbers
import operator
from dataclasses import MISSING, FrozenInstanceError


class RelqkdError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(RelqkdError, ValueError):
    """An argument is outside its documented domain."""


class CausalityViolationError(RelqkdError):
    """A measurement was scheduled before light-speed propagation allows it."""


class ResourceExhaustedError(RelqkdError, RuntimeError):
    """A session cannot finish: no round passes, or its rounds pass int32 ids or memory."""


def require_integer(name: str, value) -> int:
    """``value`` as a Python int; a value that is not an integer is refused.

    An int, a bool or a numpy integer is an integer.  Converting at entry
    keeps numpy's fixed-width arithmetic, which wraps, out of the package.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def require_float(name: str, value) -> float:
    """``value`` as a Python float; a value that is not a real number is refused.

    An int, a bool, a numpy integer or float or a float is a real number,
    unless it is an integer past the float range.  Converting at entry
    keeps numpy's fixed-width arithmetic, which overflows, out of the
    package.  NaN and the infinities are floats: the caller checks ranges.
    """
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidParameterError(f"{name} must be a real number, got {value!r:.40}")


def require_integers(owner, *names: str):
    """Store each named field of the frozen ``owner`` as a Python int, or refuse it.

    See ``require_integer``.
    """
    for name in names:
        object.__setattr__(owner, name, require_integer(name, getattr(owner, name)))


def require_floats(owner, *names: str):
    """Store each named field of the frozen ``owner`` as a Python float, or refuse it.

    See ``require_float``.
    """
    for name in names:
        object.__setattr__(owner, name, require_float(name, getattr(owner, name)))


def frozen(cls=None, /, *, slots=False):
    """Make ``cls`` a frozen dataclass whose methods are shared, not generated.

    ``dataclasses.dataclass(frozen=True)`` compiles six methods from
    generated source for each class, on every import.  Here
    ``dataclass(init=False, repr=False, eq=False)`` records the fields and
    compiles no method, so ``fields``, ``replace`` and ``astuple`` work on
    the class, and closures over the field names take the methods' place:

    - ``__init__`` binds positional and keyword arguments to the init
      fields and their defaults, stores them all at once (bypassing
      ``__setattr__``, as the generated frozen one does), then calls
      ``__post_init__`` if the class has one;
    - ``__repr__`` writes ``Name(field=value, ...)`` over the repr fields;
    - ``__eq__`` and ``__hash__`` compare and hash the tuple of the compared
      fields, unless the class defines its own, as dataclass decides;
    - ``__setattr__`` and ``__delattr__`` raise ``FrozenInstanceError`` for
      any name.

    A class method of the same name stays.  With ``slots=True`` the
    instances hold their fields in slots and have no ``__dict__``.  A field with
    ``default_factory``, ``kw_only`` or ``init=False`` and a default, or
    a ``ClassVar`` or ``InitVar`` annotation, is refused with TypeError:
    the shared ``__init__`` does not implement them.
    """
    if cls is None:
        return lambda cls: frozen(cls, slots=slots)
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    every = dataclasses.fields(cls)
    for f in every:
        if (f.default_factory is not MISSING or f.kw_only
                or not f.init and f.default is not MISSING):
            raise TypeError(f"@frozen does not implement field {cls.__name__}.{f.name}'s "
                            "default_factory, kw_only or init=False default")
    if len(every) != len(cls.__dataclass_fields__):
        raise TypeError(f"@frozen does not implement {cls.__name__}'s ClassVar or InitVar")
    init = [f for f in every if f.init]
    names = tuple(f.name for f in init)
    defaults = tuple(f.default for f in init)
    position = {name: i for i, name in enumerate(names)}
    shown = tuple(f.name for f in every if f.repr)
    compared = tuple(f.name for f in every if f.compare)
    hashed = tuple(f.name for f in every if (f.compare if f.hash is None else f.hash))
    post_init = hasattr(cls, "__post_init__")
    n = len(names)

    def bind(args, kwargs):
        """The init fields' values in order, or the TypeError that Python's call would raise."""
        given = len(args)
        if given > n:
            least = 1 + sum(default is MISSING for default in defaults)
            takes = f"{n + 1}" if least == n + 1 else f"from {least} to {n + 1}"
            raise refused(f"takes {takes} positional arguments but {given + 1} were given")
        values = [*args, *defaults[given:]]
        for name, value in kwargs.items():
            i = position.get(name, -1)
            if i < given:
                raise refused(f"got an unexpected keyword argument {name!r}" if i < 0
                              else f"got multiple values for argument {name!r}")
            values[i] = value
        missing = [repr(name) for name, value in zip(names, values) if value is MISSING]
        if missing:
            raise refused(f"missing {len(missing)} required positional "
                          f"argument{'s' * (len(missing) > 1)}: {', '.join(missing)}")
        return values

    def refused(message):
        return TypeError(f"{cls.__qualname__}.__init__() {message}")

    if slots:
        setters = tuple(cls.__dict__[name].__set__ for name in names)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            for store, value in zip(setters, args):
                store(self, value)
            if post_init:
                self.__post_init__()

        # copy and pickle restore a slotted record through these, not __setattr__.
        def __getstate__(self):
            return [getattr(self, f.name) for f in every]

        def __setstate__(self, state):
            for f, value in zip(every, state):
                object.__setattr__(self, f.name, value)

        methods = [__getstate__, __setstate__]
    else:
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            self.__dict__.update(zip(names, args))
            if post_init:
                self.__post_init__()

        methods = []

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in shown) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (tuple([getattr(self, name) for name in compared])
                    == tuple([getattr(other, name) for name in compared]))
        return NotImplemented

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in hashed]))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    own = cls.__dict__
    # As dataclass decides: a class that sets __eq__ and no __hash__ (so that
    # Python set __hash__ to None) still gets the fields' hash.
    own_hash = own.get("__hash__", MISSING)
    keeps_hash = own_hash is not MISSING and not (own_hash is None and "__eq__" in own)
    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__, *methods):
        name = method.__name__
        if name not in own or name == "__hash__" and not keeps_hash:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls
