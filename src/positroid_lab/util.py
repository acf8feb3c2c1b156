"""Shared helpers: rational serialization, signs, small iterators."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence


def rat_to_str(x: Fraction) -> str:
    """Serialize as "p/q" with the denominator always written."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p"; ValueError on anything else, "p/0" included."""
    if not isinstance(s, str):
        raise ValueError(f"a rational is a string \"p/q\", not {s!r}")
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


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
