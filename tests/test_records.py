"""``util.record`` against the ``dataclass(frozen=True)`` it replaces.

Each record class of the library gets a frozen-dataclass twin with the same
fields: a subclass, so that it keeps the class's methods, ``__post_init__``
and any ``__repr__`` of its own.  On instances the library builds (the tile
catalogs for n <= 6, the matchings and faces of the demo plabic graph, the
seeds of a (3,6) tiling), a record and its twin must agree on ``==``,
``hash`` and ``repr``, so that no set or dict order, and so no output, can
depend on which of the two built them.
"""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from positroid_lab.amplituhedron import AmplituhedronPoint, amp_map, make_positive_Z
from positroid_lab.cells import matrix_realization
from positroid_lab.cluster import ArcVariable, ExchangeVariable, Seed, build_seed, mutate
from positroid_lab.grassmann import Matroid
from positroid_lab.hypersimplex import (TileRecord, Tiling, WSimplex, enumerate_D,
                                        enumerate_tilings, tile_catalog)
from positroid_lab.perms import DecoratedPermutation, top_cell_permutation
from positroid_lab.plabic import Face, Matching, PlabicGraph, bipartite_matchings, faces
from positroid_lab.triangulations import BicoloredSubdivision, BicoloredTriangulation
from positroid_lab.util import FrozenRecordError, record

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__annotations__)


def twin(cls):
    """A frozen dataclass over ``cls``'s fields that inherits the rest; its
    ``__repr__`` is the dataclass one unless the class wrote its own."""
    body = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__}
    return dataclasses.dataclass(frozen=True, repr=cls.__repr__.__module__ == record.__module__)(
        type(cls.__name__, (cls,), body))


def instances() -> dict[type, list]:
    """Instances of each record class, as the library builds them."""
    found = {}

    def add(*xs):
        for x in xs:
            found.setdefault(type(x), []).append(x)

    for n in range(3, 7):
        for k_plus_1 in range(1, n):
            for pi, rec in tile_catalog(k_plus_1, n).items():
                add(pi, rec, rec.matroid, rec.subdivision, rec.triangulation)
            add(*enumerate_D(k_plus_1, n))
        add(*enumerate_tilings(2, n))
    G = PlabicGraph.from_json(json.loads((DEMOS / "fig_plabic_graph.json").read_text()))
    add(*bipartite_matchings(G)[1], *faces(G))
    for rec in enumerate_tilings(3, 6)[0].tiles:
        S = build_seed(rec.triangulation)
        add(S, *S.variables.values())
        for key in S.mutable_keys():
            Sm = mutate(S, key)
            add(Sm, Sm.variables[key])
    Z = make_positive_Z(6, 4, range(6))
    top = top_cell_permutation(2, 6)
    add(*(amp_map(matrix_realization(top, list(range(1 + i, 9 + i))), Z) for i in range(5)))
    return found


RECORDS = [AmplituhedronPoint, ArcVariable, ExchangeVariable, Seed, Matroid, WSimplex,
           TileRecord, Tiling, DecoratedPermutation, Matching, Face, BicoloredTriangulation,
           BicoloredSubdivision]
INSTANCES = instances()


def test_every_record_class_has_instances():
    assert set(INSTANCES) == set(RECORDS)
    assert all(len(INSTANCES[cls]) > 1 for cls in RECORDS)
    assert {cls for cls in RECORDS if cls.__repr__.__module__ != record.__module__} == {
        Matroid, WSimplex, DecoratedPermutation, BicoloredTriangulation}


def _hash(x):
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_compares_hashes_and_prints_as_its_dataclass_twin(cls):
    Twin, xs = twin(cls), INSTANCES[cls]
    ys = [Twin(*fields(x)) for x in xs]
    for x, y in zip(xs, ys):
        assert repr(x) == repr(y)
        assert _hash(x) == _hash(y) == _hash(fields(x))
        assert x == cls(*fields(x)) and x != y
    for (x1, y1), (x2, y2) in itertools.combinations(list(zip(xs, ys))[:60], 2):
        assert (x1 == x2) is (y1 == y2)
    if not isinstance(_hash(xs[0]), str):
        assert [fields(x) for x in set(xs)] == [fields(y) for y in set(ys)]
        assert [fields(x) for x in dict.fromkeys(xs)] == [fields(y) for y in dict.fromkeys(ys)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_takes_its_fields_by_position_or_keyword_only(cls):
    """A record takes its fields by position only, where its dataclass twin
    also takes keywords.  A wrong count or any keyword is one TypeError
    that names the class and its fields; the twin refuses the same counts."""
    Twin, x = twin(cls), INSTANCES[cls][0]
    values = fields(x)
    by_name = dict(zip(cls.__annotations__, values))
    assert cls(*values) == x and Twin(**by_name) == Twin(*values)
    refusal = rf"{cls.__name__}\(\) takes its fields \({', '.join(by_name)}\) by position"
    for args, kwargs in [(values + values[:1], {}), (values[:-1], {}), ((), by_name),
                         (values[:-1], dict(list(by_name.items())[-1:])),
                         (values, {"extra": 1}), (values, {next(iter(by_name)): 1}),
                         ((), {**by_name, "extra": 1})]:
        with pytest.raises(TypeError, match=refusal):
            cls(*args, **kwargs)
    for args in (values + values[:1], values[:-1]):
        with pytest.raises(TypeError):
            Twin(*args)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_refuses_assignment_and_deletion(cls):
    x = INSTANCES[cls][0]
    name = next(iter(cls.__annotations__))
    before = fields(x)
    with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
        setattr(x, name, None)
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'other'"):
        x.other = None
    with pytest.raises(FrozenRecordError, match=f"cannot delete field '{name}'"):
        delattr(x, name)
    assert fields(x) == before
    assert issubclass(FrozenRecordError, AttributeError)


@pytest.mark.parametrize("cls, args, message", [
    (Matroid, (3, 2, frozenset()), "a matroid needs at least one basis"),
    (Matroid, (3, 2, frozenset({frozenset({1, 4})})), "bad basis"),
    (DecoratedPermutation, ((1, 1, 2), frozenset(), frozenset()), "not a permutation"),
    (DecoratedPermutation, ((1, 3, 2), frozenset(), frozenset()), "decorations must partition"),
    (BicoloredTriangulation, (4, frozenset({(1, 2, 3), (2, 3, 4)}), frozenset()),
     r"arcs \(1, 3\) and \(2, 4\) cross"),
], ids=["no-basis", "bad-basis", "not-a-permutation", "undecorated", "crossing-arcs"])
def test_every_post_init_check_still_fires(cls, args, message):
    for make in (cls, twin(cls)):
        with pytest.raises(ValueError, match=message):
            make(*args)


def test_a_point_keeps_its_sign_records_outside_its_fields():
    Y = INSTANCES[AmplituhedronPoint][0]
    assert Y.signs and fields(Y) == (Y.Y,)
    assert AmplituhedronPoint(Y.Y) == Y and AmplituhedronPoint(Y.Y).signs == {}
    assert "signs" not in repr(Y)
