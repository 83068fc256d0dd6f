"""The maximum inverse-semigroup image and inverse-set computations.

Collapsing every pair of elements with identical inverse sets turns a
combinatorial family into the bicyclic semigroup Combinatorial(1, 1) and
a group-case family into the cyclic group of its generator.  Membership
in the collapse is decided through those images; window searches over
the definition x y x = x, y x y = y serve as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FamilyMismatch
from .family import Combinatorial
from .normal_form import (
    Element,
    GroupElement,
    element_runs,
    multiply,
    reduce_runs,
    sort_key,
    window_elements,
)

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
    return BicyclicImage(reduce_runs(element_runs(x), BICYCLIC))


def inverses_window(x: Element, bound: int) -> list[Element]:
    """All window elements y with x y x = x and y x y = y."""
    out = []
    for y in window_elements(x.family, bound):
        if multiply(multiply(x, y), x) == x and multiply(multiply(y, x), y) == y:
            out.append(y)
    out.sort(key=sort_key)
    return out


def inverse_related(x: Element, y: Element) -> bool:
    """Whether x and y share their full inverse sets, decided by image equality."""
    if x.family != y.family:
        raise FamilyMismatch("inverse relatedness compares elements of one family")
    return inverse_image(x) == inverse_image(y)
