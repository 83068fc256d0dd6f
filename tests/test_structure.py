import itertools
import time

import pytest

from orthox import (
    Combinatorial,
    FamilyMismatch,
    GroupCase,
    NotCombinatorial,
    NotIdempotent,
    OrthoxError,
    WrongFamily,
    format_element,
    is_idempotent,
    multiply,
    reduce,
    window_elements,
)
from orthox import structure
from orthox.normal_form import sort_key
from orthox.structure import (
    MAX_WINDOW_BOUND,
    EggboxCoord,
    Piece,
    band_diagram,
    eggbox_coord,
    element_at,
    idempotents_window,
    local_chain,
    natural_leq,
    piece_of,
    related,
)

from conftest import EVERY_FAMILY

FREE = Combinatorial(None, None)
BOUNDS = range(1, 13)
N = 10**18


def names(elements):
    return [format_element(e) for e in elements]


def test_eggbox_coord_examples():
    assert eggbox_coord(reduce("ab^2a^3", FREE)) == EggboxCoord((1, 2), (3, 0))
    assert eggbox_coord(reduce("ab", FREE)) == EggboxCoord(None, None)
    assert eggbox_coord(reduce("b^3", FREE)) == EggboxCoord((0, 3), None)
    assert eggbox_coord(reduce("a^4", FREE)) == EggboxCoord(None, (4, 0))


def test_eggbox_coord_rejects_group_elements():
    with pytest.raises(NotCombinatorial):
        eggbox_coord(reduce("a", GroupCase(False, False, None)))


@pytest.mark.parametrize(
    "family", [f for f in EVERY_FAMILY if isinstance(f, Combinatorial)], ids=str)
def test_element_at_inverts_coord(family):
    for x in window_elements(family, 5):
        row, col = eggbox_coord(x)
        assert element_at(family, row, col) == x


def test_related_examples():
    assert related(reduce("ab^2a^3", FREE), reduce("ab^2", FREE), "R")
    assert related(reduce("ab^2a^3", FREE), reduce("a^3", FREE), "L")
    assert related(reduce("a", FREE), reduce("b", FREE), "D")
    assert not related(reduce("a", FREE), reduce("b", FREE), "R")
    with pytest.raises(FamilyMismatch):
        related(reduce("a", FREE), reduce("a", Combinatorial(1, 1)), "R")


def test_related_rows_of_lower_quadrant():
    # b^k a^l and b^m a^n share a row exactly when k = m
    for k, l, m, n in itertools.product(range(1, 5), repeat=4):
        x = reduce("b" * k + "a" * l, FREE)
        y = reduce("b" * m + "a" * n, FREE)
        assert related(x, y, "R") == (k == m)
        assert related(x, y, "L") == (l == n)


def test_h_means_equal_in_combinatorial():
    window = window_elements(FREE, 4)
    for x in window:
        for y in window:
            assert related(x, y, "H") == (x == y)


def test_green_group_case():
    case2 = GroupCase(False, True, None)
    a, b = reduce("a", case2), reduce("b", case2)
    assert related(a, b, "R")          # single row when untracked
    assert not related(a, b, "L")
    assert related(a, b, "D")


def test_idempotents_window_free():
    got = set(names(idempotents_window(FREE, 2)))
    assert got == {"ab", "ba", "ab^2a", "ba^2b", "ab^2a^2b", "b^2a^2"}


def test_idempotents_group_sizes():
    assert len(idempotents_window(GroupCase(False, False, 7), 1)) == 4
    assert len(idempotents_window(GroupCase(False, True, None), 1)) == 2
    assert len(idempotents_window(GroupCase(True, False, 2), 1)) == 2
    assert len(idempotents_window(GroupCase(True, True, None), 1)) == 1


def test_natural_leq():
    assert natural_leq(reduce("ab^2a^2b", FREE), reduce("ab", FREE))
    e = reduce("ba", FREE)
    assert natural_leq(e, e)
    assert not natural_leq(reduce("ab^2a", FREE), reduce("ab", FREE))
    with pytest.raises(NotIdempotent):
        natural_leq(reduce("a", FREE), reduce("ab", FREE))


def test_band_diagram_free():
    diagram = band_diagram(FREE, 2)
    order = {(format_element(a), format_element(b))
             for a, b in diagram.order_edges}
    assert ("ab^2a^2b", "ab") in order
    sym_r = {frozenset((format_element(a), format_element(b)))
             for a, b in diagram.r_edges}
    assert frozenset(("ab^2a^2b", "ab^2a")) in sym_r
    sym_l = {frozenset((format_element(a), format_element(b)))
             for a, b in diagram.l_edges}
    assert frozenset(("ab^2a", "ba")) in sym_l


def test_band_diagram_bicyclic_chain():
    diagram = band_diagram(Combinatorial(1, 1), 3)
    assert names(diagram.nodes) == ["ab", "ba", "b^2a^2", "b^3a^3"]
    order = [(format_element(a), format_element(b))
             for a, b in diagram.order_edges]
    assert sorted(order) == [("b^2a^2", "ba"), ("b^3a^3", "b^2a^2"), ("ba", "ab")]


def test_band_diagram_rectangular():
    diagram = band_diagram(GroupCase(False, False, None), 2)
    assert len(diagram.nodes) == 4
    assert diagram.order_edges == []
    assert len(diagram.r_edges) == 2 and len(diagram.l_edges) == 2


def test_band_diagram_right_zero():
    diagram = band_diagram(GroupCase(False, True, None), 2)
    assert set(names(diagram.nodes)) == {"ab", "ba"}
    assert diagram.order_edges == [] and diagram.l_edges == []
    assert len(diagram.r_edges) == 1


def test_local_chain_examples():
    assert names(local_chain(reduce("ab", FREE), FREE, 3)) == [
        "ab", "ab^2a^2b", "ab^3a^3b"]
    bicyclic = Combinatorial(1, 1)
    assert names(local_chain(reduce("ba", bicyclic), bicyclic, 3)) == [
        "ba", "b^2a^2", "b^3a^3"]
    four = GroupCase(True, True, None)
    assert names(local_chain(reduce("ab", four), four, 3)) == ["ab"]
    assert names(local_chain(reduce("ba", FREE), FREE, 3)) == [
        "ba", "b^2a^2", "b^3a^3"]
    assert names(local_chain(reduce("ab^2a", FREE), FREE, 4)) == [
        "ab^2a", "ab^3a^2", "ab^4a^3"]
    with pytest.raises(NotIdempotent):
        local_chain(reduce("a", FREE), FREE, 3)


def test_local_chain_bound_limit_rejected_before_walking(monkeypatch):
    def refuse(e):
        raise AssertionError(f"walked below {format_element(e)}")
    monkeypatch.setattr(structure, "_cover", refuse)
    e = reduce("ab", FREE)
    for bound in (MAX_WINDOW_BOUND + 1, 10 ** 6):
        with pytest.raises(OrthoxError, match=f"bound must be <= {MAX_WINDOW_BOUND}, got {bound}"):
            local_chain(e, FREE, bound)
    monkeypatch.undo()
    assert len(local_chain(e, FREE, MAX_WINDOW_BOUND)) == MAX_WINDOW_BOUND


def test_piece_examples():
    assert piece_of(reduce("a^3", FREE)) is Piece.CYCLIC_A
    assert piece_of(reduce("b^2", FREE)) is Piece.CYCLIC_B
    assert piece_of(reduce("ba^3", FREE)) is Piece.LOWER_RIGHT
    assert piece_of(reduce("ab^2a^2b", FREE)) is Piece.CENTER
    assert piece_of(reduce("ab^2a^2", FREE)) is Piece.UPPER_RIGHT
    assert piece_of(reduce("ba^3b", FREE)) is Piece.LOWER_LEFT
    with pytest.raises(WrongFamily):
        piece_of(reduce("ba", Combinatorial(1, 1)))


def test_pieces_multiplicatively_closed():
    window = window_elements(FREE, 5)
    bicyclic_pieces = {Piece.CENTER, Piece.LOWER_RIGHT,
                       Piece.UPPER_RIGHT, Piece.LOWER_LEFT}
    by_piece = {}
    for x in window:
        by_piece.setdefault(piece_of(x), []).append(x)
    for piece in bicyclic_pieces:
        for x in by_piece[piece]:
            for y in by_piece[piece]:
                z = multiply(x, y)
                if max(z.form.k, z.form.l) <= 5:
                    assert piece_of(z) is piece, (x.form, y.form)


def test_rectangular_band_law():
    case1 = GroupCase(False, False, None)
    band = idempotents_window(case1, 1)
    for e in band:
        for f in band:
            assert multiply(multiply(e, f), e) == e


def test_bicyclic_quadrant_embedding():
    # b^(p+1) a^(q+1) against direct normal-form arithmetic on pairs
    def pair_mul(x, y):
        t = min(x[1], y[0])
        return (x[0] + y[0] - t, x[1] + y[1] - t)

    def elem(p, q):
        return reduce("b" * (p + 1) + "a" * (q + 1), FREE)

    for p, q, r, s in itertools.product(range(4), repeat=4):
        expected = pair_mul((p, q), (r, s))
        assert multiply(elem(p, q), elem(r, s)) == elem(*expected)


def test_products_of_idempotents_idempotent():
    for family in (FREE, Combinatorial(3, 2), GroupCase(False, False, None)):
        band = idempotents_window(family, 4)
        for e in band:
            for f in band:
                assert is_idempotent(multiply(e, f))


# -- closed forms against their definitions ---------------------------

def idempotents_by_definition(family, bound):
    return [x for x in window_elements(family, bound) if multiply(x, x) == x]


def below_by_definition(e, f):
    return e != f and multiply(e, f) == e and multiply(f, e) == e


def pair_key(pair):
    return sort_key(pair[0]), sort_key(pair[1])


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_is_idempotent_matches_definition(family):
    for x in window_elements(family, max(BOUNDS)):
        assert is_idempotent(x) == (multiply(x, x) == x), x


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_idempotents_window_matches_definition(family):
    for bound in BOUNDS:
        assert idempotents_window(family, bound) == idempotents_by_definition(family, bound)


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_band_diagram_matches_definition(family):
    top = idempotents_by_definition(family, max(BOUNDS))
    below = {f: {e for e in top if below_by_definition(e, f)} for f in top}
    for bound in BOUNDS:
        nodes = idempotents_by_definition(family, bound)
        window = set(nodes)
        covers = [(e, f) for f in nodes for e in below[f] & window
                  if not any(e in below[g] for g in below[f] & window)]
        diagram = band_diagram(family, bound)
        assert diagram.nodes == nodes
        assert diagram.order_edges == sorted(covers, key=pair_key)
        for edges, rel in ((diagram.r_edges, "R"), (diagram.l_edges, "L")):
            assert edges == sorted(((x, y) for x, y in itertools.combinations(nodes, 2)
                                    if related(x, y, rel)), key=pair_key)


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_local_chain_matches_definition(family):
    top = idempotents_by_definition(family, max(BOUNDS))
    below = {f: {e for e in top if below_by_definition(e, f)} for f in top}
    for e in top:
        for x, y in itertools.combinations(below[e], 2):
            assert x in below[y] or y in below[x], (e, x, y)   # a chain
    for bound in BOUNDS:
        window = set(idempotents_by_definition(family, bound))
        for e in top:      # e itself may lie outside the window
            chain = local_chain(e, family, bound)
            assert chain[0] == e and set(chain[1:]) == below[e] & window
            assert len(chain) == len(set(chain))
            for upper, lower in zip(chain, chain[1:]):
                assert lower in below[upper]


def test_closed_forms_ignore_exponent_size():
    start = time.perf_counter()
    assert is_idempotent(reduce(f"b^{N}a^{N}", FREE))
    assert not is_idempotent(reduce(f"b^{N}a^{N + 1}", FREE))
    assert local_chain(reduce(f"ab^{N}a^{N}b", FREE), FREE, 3) == [
        reduce(f"ab^{N}a^{N}b", FREE)]
    assert time.perf_counter() - start < 1.0
