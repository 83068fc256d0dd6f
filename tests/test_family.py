import pytest

from orthox import (
    Combinatorial,
    GroupCase,
    OrthoxError,
    Relation,
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
from orthox.oracle import MAX_VERIFY_LEN
from orthox.rewriting import complete, normal_forms

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
    (Combinatorial(3, None), 5), (Combinatorial(None, 4), 6)], ids=str)
def test_longest_leaves_out_longer_bound_relations(family, size):
    assert relations_of(family, max_len=size) == relations_of(family)
    assert relations_of(family, max_len=size - 1) == relations_of(family)[:-1]


def test_max_len_keeps_orders_up_to_twice_its_length():
    family = GroupCase(True, True, 5)
    assert relations_of(family, max_len=3)[-1] == Relation("aaaaaa", "a")
    assert relations_of(family, max_len=3) == relations_of(family)
    assert relations_of(family, max_len=2) == relations_of(family)[:-1]


def _normal_forms(family, max_len):
    rules, finished = complete([(r.lhs, r.rhs) for r in relations_of(family)], float("inf"))
    assert finished, family
    return normal_forms(rules, max_len)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_orders_past_twice_the_length_act_like_inf(case):
    # The full order-(2L + 1) presentation has the normal forms of order inf
    # on the words of at most L letters; in case 4 order 2L does not.
    infinite = _normal_forms(group_case(case, None), MAX_VERIFY_LEN)
    for max_len in range(1, MAX_VERIFY_LEN + 1):
        words = 2 ** (max_len + 1) - 2
        assert _normal_forms(group_case(case, 2 * max_len + 1), max_len) == infinite[:words]
        if case == 4:
            assert _normal_forms(group_case(case, 2 * max_len), max_len) != infinite[:words]


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
