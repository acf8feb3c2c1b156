"""Decorated permutations, anti-excedances, and the T-duality rotation."""

from itertools import product

import pytest

from oracles import cycle_walk_perm_sign
from positroid_lab.perms import (
    DecoratedPermutation,
    anti_excedances,
    closure_leq,
    enumerate_decorated,
    format_decorated,
    gale_leq,
    necklace,
    parse_decorated,
    perm_of_necklace,
    t_dual,
    t_dual_inverse,
    top_cell_permutation,
    type_of,
)
from positroid_lab.util import perm_sign


def test_perm_sign_matches_the_cycle_walk():
    # every sequence over 1..n of length n <= 6, repeats included
    for n in range(7):
        for seq in product(range(1, n + 1), repeat=n):
            assert perm_sign(seq) == cycle_walk_perm_sign(seq), seq
    assert perm_sign([3, 1, 2]) == 1 and perm_sign((2, 1)) == -1 and perm_sign("aba") == 0


def test_anti_excedances_pinned():
    pi = parse_decorated("(3,2_,5,1,6,8,7^,4)")
    assert sorted(anti_excedances(pi)) == [1, 4, 7]


def test_anti_excedances_trivial():
    n = 5
    all_loops = DecoratedPermutation(tuple(range(1, n + 1)),
                                     frozenset(range(1, n + 1)), frozenset())
    assert anti_excedances(all_loops) == frozenset()


def test_type_of_examples():
    assert type_of(parse_decorated("(8,5,9,2,3,6_,4,1,7)"))[0] == 5
    assert type_of(parse_decorated("(2,3,1,4_)")) == (1, 4)
    all_coloops = DecoratedPermutation((1, 2, 3), frozenset(), frozenset({1, 2, 3}))
    assert type_of(all_coloops) == (3, 3)
    assert type_of(parse_decorated("(3,1,4,2)")) == (2, 4)


def test_t_dual_pinned_quadruple():
    pairs = {
        "(3,1,4,2)": "(2,3,1,4_)",
        "(2,4,1,3)": "(3,2_,4,1)",
        "(4,3,1,2)": "(2,4,3_,1)",
        "(3,4,2,1)": "(1_,3,4,2)",
    }
    for src, dst in pairs.items():
        assert t_dual(parse_decorated(src)) == parse_decorated(dst)


def test_t_dual_of_cyclic_shift_is_loop_identity():
    n = 5
    shift = top_cell_permutation(1, n)
    d = t_dual(shift)
    assert d.images == tuple(range(1, n + 1))
    assert d.loops == frozenset(range(1, n + 1))


def test_t_dual_rejects_loops():
    with pytest.raises(ValueError):
        t_dual(parse_decorated("(1_,2^)"))


@pytest.mark.parametrize("call, message", [
    (lambda: DecoratedPermutation.from_json({"images": [1], "loops": ["x"]}),
     r"^loops must be a list of integers, not \['x'\]$"),
    (lambda: DecoratedPermutation.from_json({"loops": []}),
     r"^missing key 'images' in a permutation record$"),
    (lambda: t_dual_inverse(parse_decorated("(1^,2_)")),
     r"^inverse T-dual is defined for coloopless permutations only$"),
    (lambda: closure_leq(parse_decorated("(2,3,1)"), parse_decorated("(3,4,1,2)")),
     r"^permutations must share the same n$"),
    (lambda: parse_decorated("(2_,1)"), r"^decoration at 1 is not a fixed point$"),
], ids=["loops-not-integers", "no-images", "t-dual-inverse-coloop", "closure-sizes",
        "decorated-non-fixed-point"])
def test_perm_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_t_dual_bijection_small_n():
    for n in range(2, 7):
        for k_plus_1 in range(1, n + 1):
            loopless = [p for p in enumerate_decorated(n, k=k_plus_1) if not p.loops]
            images = [t_dual(p) for p in loopless]
            assert len(set(images)) == len(images)
            for q in images:
                assert q.is_coloopless()
                assert type_of(q)[0] == k_plus_1 - 1
                assert t_dual_inverse(q) in loopless
            coloopless = [p for p in enumerate_decorated(n, k=k_plus_1 - 1)
                          if p.is_coloopless()]
            assert set(images) == set(coloopless)


def test_closure_reflexive_and_subset():
    pi = parse_decorated("(3,1,4,2)")
    assert closure_leq(pi, pi)
    top = top_cell_permutation(2, 4)
    single = DecoratedPermutation((1, 2, 3, 4), frozenset({3, 4}), frozenset({1, 2}))
    assert closure_leq(single, top)
    assert not closure_leq(top, single)


def test_t_dual_preserves_closure_order_exhaustive_24():
    loopless = [p for p in enumerate_decorated(4, k=2) if not p.loops]
    for mu in loopless:
        for pi in loopless:
            assert closure_leq(mu, pi) == closure_leq(t_dual(mu), t_dual(pi))


def test_closure_leq_matches_realized_containment_up_to_n5():
    from oracles import realized_positroid

    pairs = 0
    for n in range(1, 6):
        for k in range(n + 1):
            bases = {pi: realized_positroid(pi).bases for pi in enumerate_decorated(n, k=k)}
            for mu in bases:
                for pi in bases:
                    assert closure_leq(mu, pi) == (bases[mu] <= bases[pi]), (mu, pi)
                    pairs += 1
    assert pairs == 37900


def test_necklace_pinned():
    assert necklace(parse_decorated("(3,1,4,2)")) == ((1, 2), (2, 3), (1, 3), (1, 4))
    # I_1 is the anti-excedance set; the coloop 7 is in every I_i, the loop 2 in none
    pi = parse_decorated("(3,2_,5,1,6,8,7^,4)")
    assert necklace(pi)[0] == tuple(sorted(anti_excedances(pi)))
    assert all(7 in I and 2 not in I for I in necklace(pi))
    # perm_of_necklace inverts necklace
    for n in range(7):
        for pi in enumerate_decorated(n):
            assert perm_of_necklace(necklace(pi)) == pi, pi


def test_gale_leq_in_shifted_orders():
    assert gale_leq((1, 2), (2, 4), 1, 4)
    assert not gale_leq((2, 4), (1, 2), 1, 4)
    # in the order 3 < 4 < 1 < 2 the set {1, 2} comes last
    assert gale_leq((3, 4), (1, 2), 3, 4)
    assert not gale_leq((1, 2), (3, 4), 3, 4)
    assert not gale_leq((1,), (1, 2), 1, 4)


def test_parse_format_round_trip():
    for text in ["(3,1,4,2)", "(2,3,1,4_)", "(3,2_,5,1,6,8,7^,4)"]:
        assert format_decorated(parse_decorated(text)) == text


def test_parse_rejects_unmarked_fixed_point():
    with pytest.raises(ValueError):
        parse_decorated("(1,3,2)")


def test_json_round_trip():
    pi = parse_decorated("(3,2_,5,1,6,8,7^,4)")
    assert DecoratedPermutation.from_json(pi.to_json()) == pi


from hypothesis import given, strategies as st


@given(st.permutations(list(range(1, 7))))
def test_t_dual_round_trip_property(images):
    from positroid_lab.perms import t_dual, t_dual_inverse

    fixed = [i + 1 for i, v in enumerate(images) if v == i + 1]
    pi = DecoratedPermutation(tuple(images), frozenset(),
                              frozenset(fixed))  # loopless: fixed -> coloops
    assert t_dual_inverse(t_dual(pi)) == pi
