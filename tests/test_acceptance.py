"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import itertools
import random
import time
from pathlib import Path

from orthox import (
    Combinatorial,
    GroupCase,
    Relation,
    WindowExceedsBounds,
    is_idempotent,
    multiply,
    power,
    reduce,
    relations_of,
    window_elements,
)
from orthox.classify import (
    Both,
    Impossible,
    LeftBound,
    Redundant,
    RightBound,
    classify_relation,
    infer_family,
)
from orthox.oracle import verify_reducer
from orthox.quotient import inverse_image
from orthox.rewriting import complete, normal_forms
from orthox.render import EggboxWindow, eggbox_grid
from orthox.structure import (
    eggbox_coord,
    element_at,
    idempotents_window,
    local_chain,
    natural_leq,
    related,
)

from conftest import COMBINATORIAL_FIVE

FREE = Combinatorial(None, None)
GOLDEN = Path(__file__).parent / "golden"


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")
        return wrapper
    return decorate


@criterion(1, "oracle equivalence on words of length <= 7 at cap 11")
def test_criterion_1_oracle_equivalence():
    for family in COMBINATORIAL_FIVE:
        start = time.monotonic()
        report = verify_reducer(family, 7, 11)
        elapsed = time.monotonic() - start
        assert report.reducer_splits_closure == [], family
        assert report.closure_splits_reducer == [], family
        assert not report.cap_warning, family
        assert report.agreements == 254 * 253 // 2
        assert elapsed < 60, (family, elapsed)


@criterion(2, "eggbox of the unbounded family matches the stored grid")
def test_criterion_2_free_family_golden():
    transcription = [
        ["ab^4a^4b", "ab^4a^3b", "ab^4a^2b", "ab^4", "ab^4a", "ab^4a^2", "ab^4a^3"],
        ["ab^3a^4b", "ab^3a^3b", "ab^3a^2b", "ab^3", "ab^3a", "ab^3a^2", "ab^3a^3"],
        ["ab^2a^4b", "ab^2a^3b", "ab^2a^2b", "ab^2", "ab^2a", "ab^2a^2", "ab^2a^3"],
        ["a^4b", "a^3b", "a^2b", "ab", "a", "a^2", "a^3"],
        ["ba^4b", "ba^3b", "ba^2b", "b", "ba", "ba^2", "ba^3"],
        ["b^2a^4b", "b^2a^3b", "b^2a^2b", "b^2", "b^2a", "b^2a^2", "b^2a^3"],
        ["b^3a^4b", "b^3a^3b", "b^3a^2b", "b^3", "b^3a", "b^3a^2", "b^3a^3"],
    ]
    matrix = eggbox_grid(FREE, EggboxWindow(3, 3, 3, 3))
    assert matrix == transcription
    stored = (GOLDEN / "eggbox_free.txt").read_text().splitlines()
    for line, row in zip(stored, transcription):
        assert [cell.strip() for cell in line.split(" | ")] == row


@criterion(3, "bounded-family eggboxes instantiate the stored patterns")
def test_criterion_3_bounded_goldens():
    matrix = eggbox_grid(Combinatorial(4, None), EggboxWindow(3, 3, 3, 3))
    stored = (GOLDEN / "eggbox_right4.txt").read_text().splitlines()
    assert [[c.strip() for c in line.split(" | ")] for line in stored] == matrix
    assert matrix[3][0] == "a^4b"
    try:
        eggbox_grid(Combinatorial(4, None), EggboxWindow(3, 3, 4, 3))
        raise AssertionError("a^5b column should not exist")
    except WindowExceedsBounds:
        pass

    matrix = eggbox_grid(Combinatorial(4, 3), EggboxWindow(2, 3, 3, 3))
    stored = (GOLDEN / "eggbox_right4_left3.txt").read_text().splitlines()
    assert [[c.strip() for c in line.split(" | ")] for line in stored] == matrix
    assert matrix[0][3] == "ab^3"
    assert matrix[2][0] == "a^4b"
    try:
        eggbox_grid(Combinatorial(4, 3), EggboxWindow(3, 3, 3, 3))
        raise AssertionError("ab^4 row should not exist")
    except WindowExceedsBounds:
        pass


@criterion(4, "mutual-inverse powers and idempotent products in 8 families")
def test_criterion_4_orthodoxy_suite():
    families = COMBINATORIAL_FIVE + [
        GroupCase(False, False, None), GroupCase(False, True, 5),
        GroupCase(True, True, 3)]
    assert len(families) == 8
    for family in families:
        for n in range(1, 13):
            an, bn = "a" * n, "b" * n
            assert reduce(an + bn + an, family) == reduce(an, family)
            assert reduce(bn + an + bn, family) == reduce(bn, family)
        band = idempotents_window(family, 4)
        for e in band:
            for f in band:
                assert is_idempotent(multiply(e, f)), (family, e.form, f.form)


@criterion(5, "lower-quadrant power table and bicyclic embedding")
def test_criterion_5_quadrant_table():
    ba2 = reduce("ba^2", FREE)
    b2a = reduce("b^2a", FREE)
    for k in range(1, 13):
        assert power(ba2, k) == reduce("b" + "a" * (k + 1), FREE)
        assert power(b2a, k) == reduce("b" * (k + 1) + "a", FREE)

    def pair_mul(x, y):
        t = min(x[1], y[0])
        return (x[0] + y[0] - t, x[1] + y[1] - t)

    def embed(p, q):
        return reduce("b" * (p + 1) + "a" * (q + 1), FREE)

    for p, q, r, s in itertools.product(range(7), repeat=4):
        assert multiply(embed(p, q), embed(r, s)) == embed(*pair_mul((p, q), (r, s)))


@criterion(6, "six-piece partition is total, disjoint and closed")
def test_criterion_6_partition():
    from orthox.structure import Piece, piece_of

    window = window_elements(FREE, 9)
    assert len(window) >= 300
    counts = {piece: 0 for piece in Piece}
    for x in window:
        counts[piece_of(x)] += 1
    assert all(count > 0 for count in counts.values())
    assert sum(counts.values()) == len(window)

    by_piece = {}
    for x in window:
        by_piece.setdefault(piece_of(x), []).append(x)
    bicyclic_pieces = (Piece.CENTER, Piece.LOWER_RIGHT,
                       Piece.UPPER_RIGHT, Piece.LOWER_LEFT)
    for piece in bicyclic_pieces:
        for x in by_piece[piece]:
            for y in by_piece[piece]:
                z = multiply(x, y)
                if max(z.form.k, z.form.l) <= 9:
                    assert piece_of(z) is piece


@criterion(7, "group cases agree with the oracle; band sizes and cyclic images")
def test_criterion_7_group_cases():
    band_size = {1: 4, 2: 2, 3: 2, 4: 1}
    for la in (False, True):
        for rb in (False, True):
            for order in (None, 1, 2, 3, 5):
                family = GroupCase(la, rb, order)
                report = verify_reducer(family, 6, 13)
                assert report.reducer_splits_closure == [], family
                assert report.closure_splits_reducer == [], family
                assert not report.cap_warning, family
                band = idempotents_window(family, 1)
                assert len(band) == band_size[family.case_number]
                if order is not None:
                    values = {inverse_image(x).value
                              for x in window_elements(family, order)}
                    assert values == set(range(order)), family
                    for x in window_elements(family, 2):
                        for y in window_elements(family, 2):
                            expected = (inverse_image(x).value
                                        + inverse_image(y).value) % order
                            assert inverse_image(multiply(x, y)).value == expected


@criterion(8, "relation classifier: worked cases, inversion, oracle equivalence")
def test_criterion_8_classifier():
    assert classify_relation("ab^4", "b^3") == LeftBound(3)          # head/head
    assert classify_relation("a^4b", "a^3") == RightBound(3)         # tail/tail
    assert classify_relation("ab^2a^3", "ab^2a^4b") == RightBound(3)
    assert classify_relation("ab^2a^3", "b^1a^3") == LeftBound(1)
    assert classify_relation("b^2a^3", "ab^3a^4b") == Both(3, 2)
    assert classify_relation("b^2a^3b", "ab^3a^2") == Both(2, 2)
    assert classify_relation("aabb", "ab") == Redundant()
    assert classify_relation("ba", "bbaa") == Impossible()

    for n in (1, 2, 3, 4, None):
        for m in (1, 2, 3, 4, None):
            family = Combinatorial(n, m)
            assert infer_family(relations_of(family)) == family

    base = relations_of(FREE)
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        u, v = _random_classified(rng)
        verdict = classify_relation(u, v)
        assert isinstance(verdict, (RightBound, LeftBound, Both))
        bounds = Combinatorial(getattr(verdict, "n", None), getattr(verdict, "m", None))
        added, canon = (normal_forms(complete([(r.lhs, r.rhs) for r in rels], 12)[0], 6)
                        for rels in (base + [Relation(u, v)], relations_of(bounds)))
        assert added == canon, (u, v, verdict)
        checked += 1


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


@criterion(9, "coordinates separate elements; row/column witnesses exist")
def test_criterion_9_combinatorial_bisimple():
    for family in (FREE, Combinatorial(3, 2)):
        window = window_elements(family, 8)
        coords = {}
        for x in window:
            coord = eggbox_coord(x)
            assert coord not in coords, (coords[coord].form, x.form)
            coords[coord] = x

    window = window_elements(FREE, 6)
    for x in window:
        row = eggbox_coord(x).row
        for y in window:
            z = element_at(FREE, row, eggbox_coord(y).col)
            assert related(x, z, "R") and related(z, y, "L")


@criterion(10, "window bands are uniform chains")
def test_criterion_10_uniform_chains():
    for family in (FREE, Combinatorial(3, 2)):
        band = [e for e in idempotents_window(family, 4)
                if max(e.form.k, e.form.l) <= 4]
        chains = []
        for e in band:
            chain = local_chain(e, family, 4)
            for upper, lower in zip(chain, chain[1:]):
                assert natural_leq(lower, upper) and lower != upper
            chains.append(chain)
        # strict descent makes any two chains order-isomorphic on the
        # common length; spot-check the pairing explicitly
        for c1 in chains:
            for c2 in chains:
                common = min(len(c1), len(c2))
                for idx in range(1, common):
                    assert natural_leq(c1[idx], c1[idx - 1])
                    assert natural_leq(c2[idx], c2[idx - 1])
