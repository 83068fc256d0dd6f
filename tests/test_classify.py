import random

import pytest

from orthox import Combinatorial, GroupCase, Relation, reduce, relations_of
from orthox.classify import (
    Both,
    Impossible,
    LeftBound,
    Redundant,
    RightBound,
    classify_relation,
    infer_family,
)
from orthox.rewriting import complete, normal_forms

BASE = relations_of(Combinatorial(None, None))


def test_worked_cases():
    assert classify_relation("aabb", "ab") == Redundant()
    assert classify_relation("a^4b", "a^3") == RightBound(3)
    assert classify_relation("ab^2a^3", "ab^2a^4b") == RightBound(3)
    assert classify_relation("b^2a^3", "ab^3a^4b") == Both(3, 2)
    assert classify_relation("ba", "bbaa") == Impossible()


def test_left_bound_and_symmetry():
    assert classify_relation("ab^3", "b^2") == LeftBound(2)
    assert classify_relation("b^2", "ab^3") == LeftBound(2)
    assert classify_relation("ab^3a^2", "b^2a^2") == LeftBound(2)


def test_mixed_shapes_impossible():
    assert classify_relation("b^2", "a^2") == Impossible()       # head vs tail
    assert classify_relation("b^2", "ba^2") == Impossible()      # head vs full
    assert classify_relation("a^2", "ba^2b") == Impossible()     # tail vs full
    assert classify_relation("b^2", "b^3") == Impossible()       # invariant gap
    assert classify_relation("ba^2", "b^2a^2") == Impossible()


def test_str_forms():
    assert str(classify_relation("a^4b", "a^3")) == "RightBound(3)"
    assert str(classify_relation("b^2a^3", "ab^3a^4b")) == "Both(3,2)"
    assert str(Redundant()) == "Redundant"


def test_bound_relations_hold_exactly_where_classified():
    # a RightBound(n) relation holds in Combinatorial(n', m) iff n' <= n,
    # and dually on the left
    for n in range(1, 5):
        lhs, rhs = "a" * (n + 1) + "b", "a" * n
        assert classify_relation(lhs, rhs) == RightBound(n)
        for np in range(1, 5):
            for m in (1, 2, 3, None):
                fam = Combinatorial(np, m)
                holds = reduce(lhs, fam) == reduce(rhs, fam)
                assert holds == (np <= n), (n, np, m)
    for m in range(1, 5):
        lhs, rhs = "a" + "b" * (m + 1), "b" * m
        assert classify_relation(lhs, rhs) == LeftBound(m)
        for mp in range(1, 5):
            for n in (1, 2, 3, None):
                fam = Combinatorial(n, mp)
                holds = reduce(lhs, fam) == reduce(rhs, fam)
                assert holds == (mp <= m), (m, mp, n)


def test_infer_examples():
    assert infer_family([Relation("a^4b", "a^3"), Relation("ab^3", "b^2")]) == \
        Combinatorial(3, 2)
    assert infer_family([]) == Combinatorial(None, None)
    got = infer_family([Relation("ba", "b^2a^2"), Relation("ab^2", "b"),
                        Relation("a^6", "a")])
    assert got == GroupCase(False, True, 5)


def test_infer_takes_least_bounds():
    got = infer_family([Relation("a^4b", "a^3"), Relation("a^3b", "a^2"),
                        Relation("aabb", "ab")])
    assert got == Combinatorial(2, None)


def test_infer_group_order_gcd():
    got = infer_family([Relation("ba", "b^2a^2"), Relation("a^6", "a"),
                        Relation("a^11", "a")])
    assert got == GroupCase(False, False, 5)
    n = 10**12
    assert infer_family([Relation(f"a^{n}", "a")]) == GroupCase(False, False, n - 1)
    got = infer_family([Relation(f"b^{n}a^{2 * n}", "a")])
    assert got == GroupCase(False, True, n - 1)


def test_infer_mixed_system_routes_to_group():
    got = infer_family([Relation("a^4b", "a^3"), Relation("ba", "b^2a^2")])
    assert got == GroupCase(True, False, None)


@pytest.mark.parametrize("family", [
    Combinatorial(n, m) for n in (1, 2, 3, 4, None) for m in (1, 2, 3, 4, None)]
    + [GroupCase(la, rb, o) for la in (False, True) for rb in (False, True)
       for o in (1, 2, 3, 5, None)])
def test_infer_inverts_relations_of(family):
    assert infer_family(relations_of(family)) == family


def _random_classified(rng):
    while True:
        shape = rng.choice(["head", "tail", "full"])
        if shape == "head":
            dm = rng.randint(1, 5)
            i1 = rng.randint(0, 1)
            u = "a" * i1 + "b" * (dm + i1)
            v = "a" * (1 - i1) + "b" * (dm + 1 - i1)
        elif shape == "tail":
            dn = rng.randint(1, 5)
            j1 = rng.randint(0, 1)
            u = "a" * (dn + j1) + "b" * j1
            v = "a" * (dn + 1 - j1) + "b" * (1 - j1)
        else:
            dm, dn = rng.randint(1, 2), rng.randint(1, 2)
            i1, j1 = rng.randint(0, 1), rng.randint(0, 1)
            flip_i, flip_j = rng.random() < 0.7, rng.random() < 0.7
            if not (flip_i or flip_j):
                continue
            i2 = 1 - i1 if flip_i else i1
            j2 = 1 - j1 if flip_j else j1
            spell = lambda i, j: "a" * i + "b" * (dm + i) + "a" * (dn + j) + "b" * j
            u, v = spell(i1, j1), spell(i2, j2)
        if len(u) <= 8 and len(v) <= 8:
            return u, v


def _forms(rels):
    """Normal forms of the words up to 6 letters, completed with rules up to 12."""
    return normal_forms(complete([(r.lhs, r.rhs) for r in rels], max_lhs=12)[0], 6)


def test_classified_relations_equivalent_to_canonical_by_oracle():
    rng = random.Random(11)
    for _ in range(20):
        u, v = _random_classified(rng)
        verdict = classify_relation(u, v)
        assert isinstance(verdict, (RightBound, LeftBound, Both)), (u, v)
        bounds = Combinatorial(getattr(verdict, "n", None), getattr(verdict, "m", None))
        assert _forms(BASE + [Relation(u, v)]) == _forms(relations_of(bounds)), (u, v, verdict)


def test_infer_agrees_with_completion_on_random_presentations():
    # A shortlex completion decides the word problem of a presentation
    # without the reducer: the base axioms plus random relations must have
    # the normal forms of the family that infer_family reads off them.
    rng = random.Random(7)
    for _ in range(300):
        extra = [Relation(*("".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
                            for _ in range(2)))
                 for _ in range(rng.randint(1, 3))]
        systems = [complete([(r.lhs, r.rhs) for r in rels], max_lhs=15)
                   for rels in (BASE + extra, relations_of(infer_family(extra)))]
        assert all(finished for _, finished in systems), extra
        assert normal_forms(systems[0][0], 7) == normal_forms(systems[1][0], 7), extra
