"""Exception hierarchy shared by all relqkd modules, and the integer and float checks."""

import numbers
import operator


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
