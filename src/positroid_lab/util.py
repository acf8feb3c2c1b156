"""Shared helpers: frozen records, rational serialization, signs, small
iterators."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Sequence


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, as
    ``dataclass(frozen=True)`` would, from closures: no source is generated
    and ``dataclasses`` is not imported.  ``__init__`` takes the fields in
    order and by position only, sets each with ``object.__setattr__``
    (the instance dict stays untouched, so its values stay inline) and then
    runs ``__post_init__`` if the class has one; ``__eq__`` and ``__hash__``
    go by the field tuple, ``__repr__`` lists the fields unless the class
    defines one, and assignment and deletion raise ``FrozenRecordError``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    arity, post, put = len(names), getattr(cls, "__post_init__", None), object.__setattr__
    values = attrgetter(*names)
    if arity == 1:
        values = lambda self, one=values: (one(self),)

    def __init__(self, *args, **named):
        if named or len(args) != arity:
            raise TypeError(f"{cls.__name__}() takes its fields ({', '.join(names)}) by "
                            f"position, not {len(args)} arguments and the keywords {sorted(named)}")
        for name, value in zip(names, args):
            put(self, name, value)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for fn in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if fn is not __repr__ or "__repr__" not in cls.__dict__:
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
    return cls


def rat_to_str(x: Fraction) -> str:
    """Serialize as "p/q" with the denominator always written."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str, where: str = "") -> Fraction:
    """Parse "p/q" or "p" for integers p and q; ValueError on anything else,
    "p/0" included, led by ``where`` and a colon when the caller names one."""
    lead = f"{where}: " if where else ""
    if not isinstance(s, str):
        raise ValueError(f"{lead}a rational is a string \"p/q\", not {s!r}")
    p, slash, q = s.partition("/")
    try:
        num, den = int(p), int(q) if slash else 1
    except ValueError:
        raise ValueError(f"{lead}{s!r} is not a rational: write \"p/q\" or an integer") from None
    if den == 0:
        raise ValueError(f"{lead}zero denominator in {s!r}")
    return Fraction(num, den)


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of 1..n as sorted tuples, in lexicographic order."""
    return list(combinations(range(1, n + 1), k))


def subset_key(I: Iterable[int]) -> str:
    return ",".join(str(i) for i in sorted(I))


def subset_from_key(s: str) -> tuple[int, ...]:
    if s == "":
        return ()
    return tuple(sorted(int(t) for t in s.split(",")))


def perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting ``seq``; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1
