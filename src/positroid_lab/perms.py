"""Decorated permutations: the combinatorial index set of positroid cells.

A decorated permutation is a permutation of [n] whose fixed points carry a
loop/coloop colour.  Anti-excedance count gives the type (k, n); the T-dual
rotates the one-line word one step to the right and declares any new fixed
points to be loops.
"""

from __future__ import annotations

from itertools import permutations

from .util import record

__all__ = [
    "DecoratedPermutation",
    "anti_excedances",
    "type_of",
    "t_dual",
    "t_dual_inverse",
    "closure_leq",
    "necklace",
    "perm_of_necklace",
    "gale_leq",
    "affine_lift",
    "parse_decorated",
    "format_decorated",
    "enumerate_decorated",
    "top_cell_permutation",
]


@record
class DecoratedPermutation:
    images: tuple[int, ...]
    loops: frozenset[int]
    coloops: frozenset[int]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {self.images}")
        fixed = {i + 1 for i, v in enumerate(self.images) if v == i + 1}
        if self.loops | self.coloops != fixed or self.loops & self.coloops:
            raise ValueError("decorations must partition the fixed points")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self, j: int) -> int:
        return self.images.index(j) + 1

    @property
    def fixed_points(self) -> frozenset[int]:
        return self.loops | self.coloops

    def is_coloopless(self) -> bool:
        return not self.coloops

    def __repr__(self):
        return format_decorated(self)

    def to_json(self) -> dict:
        return {
            "images": list(self.images),
            "loops": sorted(self.loops),
            "coloops": sorted(self.coloops),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DecoratedPermutation":
        """ValueError unless images, loops and coloops are lists of integers."""
        if not isinstance(data, dict):
            raise ValueError(f"a permutation record must be an object, not {data!r}")
        if "images" not in data:
            raise ValueError("missing key 'images' in a permutation record")
        fields = (data["images"], data.get("loops", []), data.get("coloops", []))
        for name, v in zip(("images", "loops", "coloops"), fields):
            if not (isinstance(v, list) and all(type(x) is int for x in v)):
                raise ValueError(f"{name} must be a list of integers, not {v!r}")
        images, loops, coloops = fields
        return cls(tuple(images), frozenset(loops), frozenset(coloops))


def make(images, loops=(), coloops=()) -> DecoratedPermutation:
    return DecoratedPermutation(tuple(images), frozenset(loops), frozenset(coloops))


def anti_excedances(pi: DecoratedPermutation) -> frozenset[int]:
    """{i : the preimage of i lies above i} together with the coloops."""
    ae = {i for i in range(1, pi.n + 1) if pi.inverse(i) > i}
    return frozenset(ae | pi.coloops)


def type_of(pi: DecoratedPermutation) -> tuple[int, int]:
    return len(anti_excedances(pi)), pi.n


def t_dual(pi: DecoratedPermutation) -> DecoratedPermutation:
    """Rotate the one-line word right by one; new fixed points become loops.

    Defined for loopless input only; sends type (k+1, n) to type (k, n).
    """
    if pi.loops:
        raise ValueError("T-dual is defined for loopless permutations only")
    a = pi.images
    images = (a[-1],) + a[:-1]
    loops = frozenset(i + 1 for i, v in enumerate(images) if v == i + 1)
    return DecoratedPermutation(images, loops, frozenset())


def t_dual_inverse(pi_hat: DecoratedPermutation) -> DecoratedPermutation:
    """Left rotation; inverts ``t_dual`` on coloopless input."""
    if pi_hat.coloops:
        raise ValueError("inverse T-dual is defined for coloopless permutations only")
    a = pi_hat.images
    images = a[1:] + (a[0],)
    coloops = frozenset(i + 1 for i, v in enumerate(images) if v == i + 1)
    return DecoratedPermutation(images, frozenset(), coloops)


def necklace(pi: DecoratedPermutation) -> tuple[tuple[int, ...], ...]:
    """Grassmann necklace (I_1, ..., I_n) of ``pi``, each I_i sorted.

    I_i = {j : j <_i pi^-1(j)} together with the coloops, where <_i is the
    cyclic order i < i+1 < ... < i-1; I_1 is the anti-excedance set
    (Postnikov, arXiv math/0609764, §16).
    """
    n = pi.n
    pre = {v: i for i, v in enumerate(pi.images, start=1)}
    return tuple(
        tuple(sorted(j for j in range(1, n + 1)
                     if (j - i) % n < (pre[j] - i) % n or j in pi.coloops))
        for i in range(1, n + 1))


def perm_of_necklace(necklace) -> DecoratedPermutation:
    """The decorated permutation of a Grassmann necklace, inverse to
    ``necklace``: pi(i) = j when I_{i+1} = I_i - {i} + {j}; i is a loop
    when i is not in I_i and a coloop when i is in I_i = I_{i+1}
    (Postnikov, arXiv math/0609764, §16)."""
    n = len(necklace)
    images = [0] * n
    loops, coloops = set(), set()
    for i in range(1, n + 1):
        here, after = necklace[i - 1], necklace[i % n]
        if i not in here:
            images[i - 1] = i
            loops.add(i)
        elif here == after:
            images[i - 1] = i
            coloops.add(i)
        else:
            images[i - 1], = set(after) - set(here)
    return DecoratedPermutation(tuple(images), frozenset(loops), frozenset(coloops))


def gale_leq(A, B, i: int, n: int) -> bool:
    """A <=_i B in the Gale order of the cyclic order starting at i: sorted
    in that order, each element of A is at most the matching one of B.

    Sets of different sizes are incomparable.
    """
    a = sorted((x - i) % n for x in A)
    b = sorted((x - i) % n for x in B)
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def closure_leq(mu: DecoratedPermutation, pi: DecoratedPermutation) -> bool:
    """Closure order: the cell of mu lies in the closure of the cell of pi.

    That is containment of positroids, which holds exactly when
    I_i(pi) <=_i I_i(mu) for every i (Oh, arXiv 0803.1018).
    """
    if mu.n != pi.n:
        raise ValueError("permutations must share the same n")
    n = pi.n
    return all(gale_leq(I, J, i, n)
               for i, (I, J) in enumerate(zip(necklace(pi), necklace(mu)), start=1))


def affine_lift(pi: DecoratedPermutation) -> tuple[int, ...]:
    """Bounded affine representative: f(i) in [i, i+n], loops at i, coloops at i+n."""
    n = pi.n
    out = []
    for i in range(1, n + 1):
        v = pi(i)
        if v == i:
            out.append(i + n if i in pi.coloops else i)
        else:
            out.append(v if v > i else v + n)
    return tuple(out)


def format_decorated(pi: DecoratedPermutation) -> str:
    toks = []
    for i in range(1, pi.n + 1):
        v = pi(i)
        if i in pi.loops:
            toks.append(f"{v}_")
        elif i in pi.coloops:
            toks.append(f"{v}^")
        else:
            toks.append(str(v))
    return "(" + ",".join(toks) + ")"


def parse_decorated(text: str, fixed_default: str | None = None) -> DecoratedPermutation:
    """Parse "(3,1,4,2)" style text; "2_" marks a loop, "7^" a coloop.

    Unmarked fixed points are rejected unless ``fixed_default`` is "loop",
    which makes them loops.
    """
    body = text.strip().strip("()")
    images, loops, coloops = [], set(), set()
    for pos, tok in enumerate(t.strip() for t in body.split(",")):
        if tok.endswith("_"):
            loops.add(pos + 1)
            tok = tok[:-1]
        elif tok.endswith("^"):
            coloops.add(pos + 1)
            tok = tok[:-1]
        images.append(int(tok))
    for i in loops | coloops:
        if images[i - 1] != i:
            raise ValueError(f"decoration at {i} is not a fixed point")
    for i, v in enumerate(images):
        if v == i + 1 and (i + 1) not in loops | coloops:
            if fixed_default == "loop":
                loops.add(i + 1)
            else:
                raise ValueError(f"fixed point {i + 1} needs a loop/coloop mark")
    return DecoratedPermutation(tuple(images), frozenset(loops), frozenset(coloops))


def enumerate_decorated(n: int, k: int | None = None):
    """All decorated permutations on [n], optionally filtered by type."""
    for images in permutations(range(1, n + 1)):
        fixed = [i + 1 for i, v in enumerate(images) if v == i + 1]
        for mask in range(1 << len(fixed)):
            loops = frozenset(f for b, f in enumerate(fixed) if mask >> b & 1)
            coloops = frozenset(fixed) - loops
            pi = DecoratedPermutation(images, loops, coloops)
            if k is None or type_of(pi)[0] == k:
                yield pi


def top_cell_permutation(k: int, n: int) -> DecoratedPermutation:
    """i -> i + k cyclically; indexes the unique top-dimensional cell."""
    if k == 0:
        return DecoratedPermutation(tuple(range(1, n + 1)), frozenset(range(1, n + 1)),
                                    frozenset())
    if k == n:
        return DecoratedPermutation(tuple(range(1, n + 1)), frozenset(),
                                    frozenset(range(1, n + 1)))
    images = tuple((i + k - 1) % n + 1 for i in range(1, n + 1))
    return DecoratedPermutation(images, frozenset(), frozenset())
