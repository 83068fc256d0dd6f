"""The maximum inverse-semigroup image and inverse-set computations.

Collapsing every pair of elements with identical inverse sets turns a
combinatorial family into the bicyclic semigroup Combinatorial(1, 1) and
a group-case family into the cyclic group of its generator.  The bicyclic
image of x is its head and tail under the bicyclic bounds, the cyclic
image its balance.  Membership in the collapse is decided through those
images, and inverse sets come from the Clifford-Miller theorem.  The
tests check both against searches over the definition x y x = x, y x y = y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import Combinatorial
from .normal_form import (
    Element,
    GroupElement,
    check_bound,
    element_at,
    in_window,
    sort_key,
)
from .structure import col_idempotents, eggbox_coord, row_idempotents

BICYCLIC = Combinatorial(1, 1)


@dataclass(frozen=True)
class BicyclicImage:
    element: Element


@dataclass(frozen=True)
class CyclicImage:
    value: int


InverseImage = BicyclicImage | CyclicImage


def inverse_image(x: Element) -> InverseImage:
    """Image of x in the maximum inverse-semigroup quotient."""
    if isinstance(x.form, GroupElement):
        return CyclicImage(x.form.g)
    return BicyclicImage(element_at(BICYCLIC, x.form.head, x.form.tail))


def inverses_window(x: Element, bound: int) -> list[Element]:
    """All window elements y with x y x = x and y x y = y; O(1) in the bound.

    Group cases: exactly the elements of balance -g.  Combinatorial
    families are H-trivial, so by the Clifford-Miller theorem x has one
    inverse at (row of f, column of e) for each idempotent e in its row
    and each idempotent f in its column: at most four in all.
    """
    check_bound(bound)
    family = x.family
    if isinstance(x.form, GroupElement):
        g = family.residue(-x.form.g)
        found = [Element(family, GroupElement(g, r, c))
                 for r in family.rows for c in family.cols]
    else:
        row, col = eggbox_coord(x)
        found = [element_at(family, eggbox_coord(f).row, eggbox_coord(e).col)
                 for e in row_idempotents(family, row)
                 for f in col_idempotents(family, col)]
    return sorted((y for y in found if in_window(y, bound)), key=sort_key)
