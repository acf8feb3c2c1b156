"""Bridge reconstruction of cells from decorated permutations."""

import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from positroid_lab.cells import (
    bridge_decomposition,
    cell_dim_of_perm,
    cell_dimension,
    graph_of_perm,
    matrix_realization,
    positroid_catalog,
    positroid_of_perm,
    sample_cell_matrix,
)
from positroid_lab.grassmann import (decorated_permutation_of, is_tnn, plucker_of_matrix,
                                     positroid_of_necklace)
from positroid_lab.perms import enumerate_decorated, parse_decorated, top_cell_permutation
from positroid_lab.plabic import positroid_of_graph, trip_permutation

from oracles import jacobian_cell_dimension, rotated_realization


def test_round_trip_exhaustive_small_n():
    for n in range(1, 5):
        for pi in enumerate_decorated(n):
            G = graph_of_perm(pi)
            assert trip_permutation(G) == pi
            C = sample_cell_matrix(pi, Random(n))  # certified internally
            assert is_tnn(plucker_of_matrix(C))
            assert positroid_of_graph(G).bases == positroid_of_perm(pi).bases


def test_row_replay_matches_rotation_oracle_up_to_n6():
    rng = Random(0)
    count = 0
    for n in range(0, 7):
        for pi in enumerate_decorated(n):
            params = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                      for _ in range(cell_dim_of_perm(pi))]
            C, R = matrix_realization(pi, params), rotated_realization(pi, params)
            assert (C.rows, C.cols, C.to_json()) == (R.rows, R.cols, R.to_json())
            count += 1
    assert count == 2372


def test_top_cell_graph_matches_the_benchmark_fixture():
    """Edge order, dart numbers and vertex names of the bridge graph are
    pinned: ``cell --graph --matchings`` prints bipartized edge indices."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "top36_graph.json"
    assert graph_of_perm(top_cell_permutation(3, 6)).to_json() == json.loads(path.read_text())


def test_round_trip_exhaustive_n5():
    for pi in enumerate_decorated(5):
        assert decorated_permutation_of(sample_cell_matrix(pi, Random(5))) == pi
        assert trip_permutation(graph_of_perm(pi)) == pi


def test_round_trip_spot_n6():
    rng = Random(0)
    pool = list(enumerate_decorated(6))
    for pi in rng.sample(pool, 60):
        assert decorated_permutation_of(sample_cell_matrix(pi, Random(6))) == pi
        assert trip_permutation(graph_of_perm(pi)) == pi


def test_dimension_matches_jacobian():
    for n in range(1, 6):
        for pi in enumerate_decorated(n):
            G = graph_of_perm(pi)
            assert cell_dimension(G) == cell_dim_of_perm(pi) == jacobian_cell_dimension(G), pi


def test_top_cell_dimension():
    assert cell_dim_of_perm(top_cell_permutation(2, 4)) == 4
    assert cell_dim_of_perm(top_cell_permutation(2, 5)) == 6
    assert cell_dim_of_perm(parse_decorated("(3,1,4,2)")) == 3


def test_positroid_pinned():
    assert positroid_of_perm(parse_decorated("(3,1,4,2)")).sorted_bases() == \
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    assert positroid_of_perm(parse_decorated("(2,4,1,3)")).sorted_bases() == \
        [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_bridge_count_is_dimension():
    pi = parse_decorated("(3,1,4,2)")
    steps = bridge_decomposition(pi)
    assert sum(1 for s in steps if s[0] == "bridge") == 3


def test_sampling_stays_in_cell():
    rng = Random(9)
    pi = parse_decorated("(3,1,4,2)")
    for _ in range(5):
        C = sample_cell_matrix(pi, rng)
        assert decorated_permutation_of(C) == pi


def test_catalog_distinct_positroids():
    cat = positroid_catalog(2, 4)
    perms = set(cat.values())
    assert len(cat) == len(perms)
    # every type (2,4) decorated permutation appears exactly once
    assert perms == set(enumerate_decorated(4, k=2))


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) function in every positroid_lab module that
    holds it, so calls made inside the library are counted too."""
    import sys

    calls = []
    for module, name in targets:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("positroid_lab") and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_positroid_paths_take_no_minor_realization_or_matching(monkeypatch):
    from positroid_lab import cells, exact, plabic
    from positroid_lab.hypersimplex import tile_catalog
    from positroid_lab.perms import closure_leq
    from positroid_lab.trop import (
        faces_are_positroids,
        is_finest,
        random_positive_tropical,
        regular_subdivision,
    )

    D = regular_subdivision(random_positive_tropical(3, 6, Random(0)))
    assert is_finest(D) and len(D.cells) == 6
    perms = list(enumerate_decorated(4, k=2))
    calls = _count_calls(monkeypatch, [(exact, "det"), (cells, "matrix_realization"),
                                       (plabic, "matchings")])
    positroid_of_necklace.cache_clear()
    assert positroid_of_perm(parse_decorated("(3,1,4,2)")).sorted_bases() == \
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    positroid_catalog.cache_clear()
    positroid_of_necklace.cache_clear()
    assert len(positroid_catalog(3, 6)) == len(list(enumerate_decorated(6, k=3)))
    assert faces_are_positroids(D)
    assert sum(closure_leq(mu, pi) for mu in perms for pi in perms) > len(perms)
    tile_catalog.cache_clear()
    positroid_of_necklace.cache_clear()
    assert len(tile_catalog(3, 6)) == 48
    assert calls == []


def test_realization_takes_no_fraction_minor_or_necklace_scan(monkeypatch):
    from positroid_lab import grassmann

    calls = _count_calls(monkeypatch, [(grassmann, "maximal_minors"),
                                       (grassmann, "plucker_of_matrix"),
                                       (grassmann, "necklace_of_bases")])
    for k in (2, 3):
        pi = top_cell_permutation(k, 6)
        C = matrix_realization(pi, [Fraction(j + 2, j + 1) for j in range(k * (6 - k))])
        assert (C.rows, C.cols) == (k, 6)
    assert calls == []
    # the wrappers count: a Plücker vector of the point takes its minors once
    grassmann.plucker_of_matrix(C)
    assert calls == ["plucker_of_matrix", "maximal_minors"]


def test_perms_and_trop_import_nothing_from_cells():
    import ast
    import inspect

    from positroid_lab import perms, trop

    for module in (perms, trop):
        tree = ast.parse(inspect.getsource(module))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert "cells" not in imported, module.__name__


def test_no_module_of_the_library_holds_an_assert():
    # python -O strips assert statements, so no check may live in one
    import ast
    from pathlib import Path

    import positroid_lab

    paths = sorted(Path(positroid_lab.__file__).parent.rglob("*.py"))
    assert len(paths) >= 13
    for path in paths:
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("params, message", [
    ([1, 1], r"^cell of \(3,4,1,2\) needs 4 parameters$"),
    ([1, 1, 1, 0], r"^bridge parameters must be positive$"),
], ids=["count", "nonpositive"])
def test_matrix_realization_refuses_bad_bridge_parameters(params, message):
    with pytest.raises(ValueError, match=message):
        matrix_realization(parse_decorated("(3,4,1,2)"), params)
