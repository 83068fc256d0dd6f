"""Green's relations, eggbox coordinates, the idempotent band and the
six-piece partition of the fully free combinatorial family.

Eggbox keys use None for the central row (the R-class of a) and the
central column (the L-class of b, which contains ab).  Edge rows are the
head pairs (i, k) of canonical forms, edge columns the tail pairs (l, j).
Window enumerations cap the exponents k and l, so a window is a
rectangular sub-grid of the eggbox diagram.  The family objects say which
rows and columns exist; normal_form's element_at, window_rows and
window_cols address them.  Every element is its eggbox cell, so the band's
covers are cells too: the idempotent below e is element_at of e's head and
tail each lengthened by one letter.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    FamilyMismatch,
    NotCombinatorial,
    NotIdempotent,
    OrthoxError,
    WrongFamily,
)
from .family import Combinatorial, FamilySpec, GroupCase
from .normal_form import (
    Element,
    GroupElement,
    ReducedWord,
    check_bound,
    element_at,
    in_window,
    is_idempotent,
    multiply,
    sort_key,
    window_rows,
)

RowKey = Optional[tuple[int, int]]   # None = central row, else head (i, k)
ColKey = Optional[tuple[int, int]]   # None = central column, else tail (l, j)

GREEN_RELATIONS = ("R", "L", "H", "D")

# Window idempotents and the band are O(bound) in time and memory: at
# this bound `orthox band --format dot` takes about 1.6 s and 64 MB.
MAX_WINDOW_BOUND = 10_000


class EggboxCoord(NamedTuple):
    row: RowKey
    col: ColKey


class Piece(enum.Enum):
    """The six-piece partition of Combinatorial(inf, inf)."""

    CYCLIC_A = "cyclic_a"
    CYCLIC_B = "cyclic_b"
    CENTER = "bicyclic_center"
    LOWER_RIGHT = "bicyclic_lower_right"
    UPPER_RIGHT = "bicyclic_upper_right"
    LOWER_LEFT = "bicyclic_lower_left"


@dataclass
class BandDiagram:
    nodes: list[Element]
    order_edges: list[tuple[Element, Element]]  # (lower, upper) covering pairs
    r_edges: list[tuple[Element, Element]]
    l_edges: list[tuple[Element, Element]]


def eggbox_coord(x: Element) -> EggboxCoord:
    """Grid coordinate of a combinatorial element."""
    form = x.form
    if not isinstance(form, ReducedWord):
        raise NotCombinatorial("eggbox coordinates exist for combinatorial elements only")
    return EggboxCoord(form.head, None if form.tail == (1, 1) else form.tail)  # ab: center


def related(x: Element, y: Element, rel: str) -> bool:
    """Green's relations R, L, H, D.  D is total inside every family."""
    if rel not in GREEN_RELATIONS:
        raise OrthoxError(f"relation must be one of {GREEN_RELATIONS}, got {rel!r}")
    if x.family != y.family:
        raise FamilyMismatch("Green's relations compare elements of one family")
    if rel == "D":
        return True
    (row_x, col_x), (row_y, col_y) = _row_col(x), _row_col(y)
    if rel == "R":
        return row_x == row_y
    if rel == "L":
        return col_x == col_y
    return row_x == row_y and col_x == col_y


def idempotents_window(family: FamilySpec, bound: int) -> list[Element]:
    """Idempotents with exponents <= bound (group cases: all of them).

    Sorted by sort_key; O(bound), so bound stops at MAX_WINDOW_BOUND.
    The idempotents are ab and the two quadruples (i, k, k - i + j, j) of
    each eggbox row (i, k), as far as the family bounds admit them.
    """
    check_bound(bound, MAX_WINDOW_BOUND)
    if isinstance(family, GroupCase):
        return [Element(family, GroupElement(0, r, c))
                for r in family.rows for c in family.cols]
    return [e for row in window_rows(family, bound)
            for e in row_idempotents(family, row) if in_window(e, bound)]


def natural_leq(e: Element, f: Element) -> bool:
    """Natural partial order on idempotents: e <= f iff ef = fe = e."""
    for x in (e, f):
        if not is_idempotent(x):
            raise NotIdempotent(f"natural order needs idempotents, got {x.form}")
    return multiply(e, f) == e and multiply(f, e) == e


def band_diagram(family: FamilySpec, bound: int) -> BandDiagram:
    """Window band: nodes, covering pairs and same-row/column pairs.

    A combinatorial idempotent covers exactly one idempotent, and the
    exponents never fall along covers, so the window's covering pairs are
    (cover(f), f) with both ends in the window.  Group-case bands are
    rectangular: no two idempotents are comparable.  The bound is checked
    by idempotents_window, before anything is built.
    """
    nodes = idempotents_window(family, bound)
    order_edges = []
    if isinstance(family, Combinatorial):
        in_band = set(nodes)
        order_edges = [(e, f) for f in nodes if (e := _cover(f)) in in_band]
    key = lambda pair: (sort_key(pair[0]), sort_key(pair[1]))
    return BandDiagram(nodes, sorted(order_edges, key=key),
                       sorted(_pairs_sharing(nodes, 0), key=key),
                       sorted(_pairs_sharing(nodes, 1), key=key))


def local_chain(e: Element, family: FamilySpec, bound: int) -> list[Element]:
    """e and the window idempotents below it, sorted from e downward.

    They form a chain, the uniformity of the band seen at window scale:
    below a combinatorial idempotent lie its covers' covers, with
    exponents that never fall, so the chain stops where it leaves the
    window.  A group-case idempotent has nothing below it.  The chain is
    O(bound) long, so bound stops at MAX_WINDOW_BOUND.
    """
    if not is_idempotent(e):
        raise NotIdempotent("local_chain starts from an idempotent")
    check_bound(bound, MAX_WINDOW_BOUND)
    if e.family != family:
        raise FamilyMismatch(f"local_chain in {family} got an element of {e.family}")
    chain = [e]
    if isinstance(family, Combinatorial):
        while in_window(lower := _cover(chain[-1]), bound):
            chain.append(lower)
    return chain


def row_idempotents(family: Combinatorial, row: RowKey) -> list[Element]:
    """The idempotents in one eggbox row of a combinatorial family."""
    if row is None:
        return [element_at(family, None, None)]      # ab
    i, k = row
    return [Element(family, ReducedWord(i, k, k - i + j, j)) for j in (0, 1)
            if family.admits_tail(k - i + j, j)]


def col_idempotents(family: Combinatorial, col: ColKey) -> list[Element]:
    """The idempotents in one eggbox column of a combinatorial family."""
    if col is None:
        return [element_at(family, None, None)]      # ab
    l, j = col
    return [Element(family, ReducedWord(i, l + i - j, l, j)) for i in (0, 1)
            if family.admits_head(i, l + i - j)]


def piece_of(x: Element) -> Piece:
    """Locate x in the six-piece partition of Combinatorial(inf, inf)."""
    if x.family != Combinatorial(None, None):
        raise WrongFamily("the six-piece partition lives in Combinatorial(inf, inf)")
    form = x.form
    i, k, l, j = form.i, form.k, form.l, form.j
    if (i, k) == (0, 0):                     # tail-only shapes
        return Piece.CENTER if j == 1 else Piece.CYCLIC_A
    if (l, j) == (0, 0):                     # head-only shapes
        return Piece.CENTER if i == 1 else Piece.CYCLIC_B
    if i == 1 and j == 1:
        return Piece.CENTER
    if i == 1:
        return Piece.UPPER_RIGHT
    if j == 1:
        return Piece.LOWER_LEFT
    return Piece.LOWER_RIGHT


def _row_col(x: Element) -> tuple:
    """Row and column key of x: eggbox coordinates, or a group element's ends."""
    if isinstance(x.form, GroupElement):
        return x.form.row, x.form.col
    return eggbox_coord(x)


def _pairs_sharing(nodes: list[Element], side: int) -> list[tuple[Element, Element]]:
    """Pairs of nodes, in node order, with equal row (side 0) or column (1) keys."""
    groups: dict = {}
    for x in nodes:
        groups.setdefault(_row_col(x)[side], []).append(x)
    return [pair for group in groups.values()
            for pair in itertools.combinations(group, 2)]


def _cover(e: Element) -> Element:
    """The idempotent that e covers: a^i b^(k+1) a^(l+1) b^j, reading ab as abab."""
    f = e.form
    i, k, l, j = (f.i, f.k, f.l, f.j) if f.k else (1, 1, 1, 1)   # only ab lacks a head
    return element_at(e.family, (i, k + 1), (l + 1, j))
