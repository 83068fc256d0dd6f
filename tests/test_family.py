import pytest

from orthox import (
    Combinatorial,
    GroupCase,
    OrthoxError,
    dual_of,
    reduce,
    mirror,
    relations_of,
)
from orthox.family import (
    describe,
    group_case,
    parse_bound,
    parse_combinatorial,
)

from conftest import COMBINATORIAL_FIVE, GROUP_CASES


def rel_pairs(family):
    return {frozenset((r.lhs, r.rhs)) for r in relations_of(family)}


def test_relations_free_most():
    assert rel_pairs(Combinatorial(None, None)) == {
        frozenset({"aba", "a"}), frozenset({"bab", "b"}),
        frozenset({"aabb", "ab"})}


def test_relations_right_bound():
    rels = rel_pairs(Combinatorial(3, None))
    assert frozenset({"aaaab", "aaa"}) in rels
    assert len(rels) == 4


def test_relations_group_base():
    assert rel_pairs(GroupCase(False, False, None)) == {
        frozenset({"aba", "a"}), frozenset({"bab", "b"}),
        frozenset({"aabb", "ab"}), frozenset({"bbaa", "ba"})}


def test_relations_group_flags_and_order():
    rels = rel_pairs(GroupCase(True, True, 5))
    assert frozenset({"aab", "a"}) in rels
    assert frozenset({"abb", "b"}) in rels
    assert frozenset({"aaaaaa", "a"}) in rels


@pytest.mark.parametrize("family, size", [
    (Combinatorial(3, None), 5), (Combinatorial(None, 4), 6), (GroupCase(True, True, 5), 6)],
    ids=str)
def test_longest_leaves_out_longer_bound_relations(family, size):
    assert relations_of(family, longest=size) == relations_of(family)
    assert relations_of(family, longest=size - 1) == relations_of(family)[:-1]


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + GROUP_CASES)
def test_every_relation_holds_under_reducer(family):
    for rel in relations_of(family):
        assert reduce(rel.lhs, family) == reduce(rel.rhs, family), rel


def test_dual_examples():
    assert dual_of(Combinatorial(3, None)) == Combinatorial(None, 3)
    assert dual_of(Combinatorial(1, 1)) == Combinatorial(1, 1)
    assert dual_of(GroupCase(False, True, 5)) == GroupCase(True, False, 5)


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + GROUP_CASES)
def test_dual_is_involution(family):
    assert dual_of(dual_of(family)) == family


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + GROUP_CASES)
def test_dual_relations_are_mirrored(family):
    dual_rels = rel_pairs(dual_of(family))
    mirrored = {frozenset((mirror(r.lhs), mirror(r.rhs))) for r in relations_of(family)}
    extra = dual_rels ^ mirrored
    if isinstance(family, GroupCase) and family.order is not None:
        # the finite order is pinned on one generator only; its mirror
        # b^(d+1) = b is a consequence, checked here under the dual reducer
        d = dual_of(family)
        assert reduce("b" * (family.order + 1), d) == reduce("b", d)
        order_rels = {frozenset({"a" * (family.order + 1), "a"}),
                      frozenset({"b" * (family.order + 1), "b"})}
        assert extra <= order_rels
    else:
        assert not extra


def test_bound_validation():
    with pytest.raises(OrthoxError):
        Combinatorial(0, None)
    with pytest.raises(OrthoxError):
        GroupCase(False, False, 0)


def test_parse_helpers():
    assert parse_bound("inf") is None
    assert parse_bound("4") == 4
    with pytest.raises(OrthoxError):
        parse_bound("x")
    with pytest.raises(OrthoxError):
        parse_bound("0")
    assert parse_combinatorial("3,inf") == Combinatorial(3, None)
    with pytest.raises(OrthoxError):
        parse_combinatorial("3")
    assert group_case(2, 5) == GroupCase(False, True, 5)
    with pytest.raises(OrthoxError):
        group_case(5, None)


def test_describe():
    assert describe(Combinatorial(3, None)) == "Combinatorial(3,inf)"
    assert describe(GroupCase(False, True, 5)) == "GroupCase(2, order=5)"


def test_case_numbers_and_tracking():
    assert GroupCase(False, False, None).case_number == 1
    assert GroupCase(False, True, None).case_number == 2
    assert GroupCase(True, False, None).case_number == 3
    assert GroupCase(True, True, None).case_number == 4
    case2 = GroupCase(False, True, None)
    assert not case2.tracks_row and case2.tracks_col
    case3 = GroupCase(True, False, None)
    assert case3.tracks_row and not case3.tracks_col
