"""Canonical forms, multiplication, inverses and related element queries.

Combinatorial elements are stored as the quadruple (i, k, l, j) spelling
a^i b^k a^l b^j with i, j in {0, 1}.  Exactly one shape holds:

    head only   (i, k, 0, 0) with k > i           -- a^i b^k
    tail only   (0, 0, l, j) with l >= 1, l >= j  -- a^l b^j (ab included)
    both        (i, k, l, j) with k > i, l > j

The product of two elements is computed by colliding the tail of the left
factor with the head of the right factor into a single run a^x b^y, which
re-abridges to a head or a tail and is then absorbed into the surviving
outer parts.  Family bounds fire afterwards, in element_at: a head (1, k)
with k > m drops to (0, k-1), a tail (l, 1) with l > n drops to (l-1, 0).

Group-case elements carry the letter balance g = #a - #b (a residue when
the generator order is finite) plus the first and last letters where the
family keeps them meaningful.  In every family format_element writes the
shortlex-least word of the element, which is the oracle's normal form.

Eggbox addressing lives here: element_at builds the element from a head
and a tail and applies the family bounds, and window_rows / window_cols
list the rows and columns that fit a window bound.  element_at is the one
place a combinatorial element is built from parts: multiply and reduce
end in it, and so do structure's covers and quotient's bicyclic images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FamilyMismatch, OrthoxError
from .family import Combinatorial, FamilySpec, GroupCase, bound_value
from .words import (
    Run,
    balance,
    decimal,
    format_runs,
    mirror_runs,
    parse_runs,
    run_syllables,
)

Part = tuple[int, int]

MAX_ELEMENTS_BOUND = 300    # window_elements: 360,000 elements in the free family


@dataclass(frozen=True)
class ReducedWord:
    """Canonical quadruple (i, k, l, j) for a^i b^k a^l b^j."""

    i: int
    k: int
    l: int
    j: int

    def __post_init__(self):
        head = self.k > 0
        tail = self.l > 0
        ok = False
        if head and not tail:
            ok = self.k > self.i and self.j == 0
        elif tail and not head:
            ok = self.i == 0 and self.l >= self.j and self.j in (0, 1)
        elif head and tail:
            ok = self.k > self.i and self.l > self.j
        if not ok or self.i not in (0, 1) or self.j not in (0, 1):
            raise OrthoxError(f"invalid reduced quadruple {(self.i, self.k, self.l, self.j)}")

    @property
    def head(self) -> Part | None:
        return (self.i, self.k) if self.k else None

    @property
    def tail(self) -> Part | None:
        return (self.l, self.j) if self.l else None


@dataclass(frozen=True)
class GroupElement:
    """Coordinates (g, row, col); row/col are 'a'/'b' or None when untracked."""

    g: int
    row: str | None
    col: str | None


@dataclass(frozen=True)
class Element:
    family: FamilySpec
    form: ReducedWord | GroupElement


def reduce(word: str, family: FamilySpec) -> Element:
    """Canonical form of a word (caret notation accepted) in the family."""
    return _reduce(parse_runs(word), family)


def _reduce(runs: list[Run], family: FamilySpec) -> Element:
    """Canonical form of a word given as maximal runs; O(number of runs).

    A combinatorial word is multiplied out in the free family and bounded
    once, by element_at: the bounds are the quotient map onto the family.
    """
    if isinstance(family, GroupCase):
        return Element(family, GroupElement(family.residue(balance(runs)),
                                            *family.cell(runs[0][0], runs[-1][0])))
    acc: tuple[Part | None, Part | None] | None = None
    for k, l in run_syllables(runs):
        syl = _abridge(k, l)
        acc = syl if acc is None else _combine(*acc, *syl)
    assert acc is not None
    return element_at(family, *acc)


def multiply(x: Element, y: Element) -> Element:
    if x.family != y.family:
        raise FamilyMismatch(f"cannot multiply across families {x.family} and {y.family}")
    if isinstance(x.form, GroupElement):
        g = x.family.residue(x.form.g + y.form.g)
        return Element(x.family, GroupElement(g, x.form.row, y.form.col))
    return element_at(x.family, *_combine(x.form.head, x.form.tail, y.form.head, y.form.tail))


def equal(x: Element, y: Element) -> bool:
    if x.family != y.family:
        raise FamilyMismatch(f"cannot compare across families {x.family} and {y.family}")
    return x.form == y.form


def canonical_inverse(x: Element) -> Element:
    """The inverse obtained by mirroring the canonical word of x."""
    return _reduce(mirror_runs(element_runs(x)), x.family)


def power(x: Element, p: int) -> Element:
    """x^p by square-and-multiply: at most 2 log2(p) multiplies."""
    if p < 1:
        raise OrthoxError(f"power expects a positive exponent, got {p}")
    acc, base = None, x
    while True:
        if p & 1:
            acc = base if acc is None else multiply(acc, base)
        p >>= 1
        if not p:
            return acc
        base = multiply(base, base)


def is_idempotent(x: Element) -> bool:
    """x x = x, read off the letter balance in O(1).

    Every defining relation keeps #a - #b (mod the generator order), and
    x is idempotent exactly when that balance is 0: g = 0 in a group case;
    l = k - i + j for a quadruple, which holds for ab and the heads-and-tails
    (i, k, k - i + j, j), and for no head-only or other tail-only form.
    """
    f = x.form
    if isinstance(f, GroupElement):
        return f.g == 0
    return f.l == f.k - f.i + f.j


def is_group_element(x: Element) -> bool:
    """Group-case elements always; combinatorial ones only when idempotent."""
    if isinstance(x.form, GroupElement):
        return True
    return is_idempotent(x)


@dataclass(frozen=True)
class Finite:
    value: int


@dataclass(frozen=True)
class Infinite:
    """The powers of x are pairwise distinct."""


def order_of(x: Element) -> Finite | Infinite:
    """Size of the cyclic subsemigroup {x, x^2, ...}, exactly.

    The balance of x^p is p times that of x, so powers of an element of
    nonzero balance never repeat unless the generator order d wraps the
    balance: then x^p depends on p g mod d alone and there are
    d / gcd(g, d) of them.  Balance 0 means x is idempotent.
    """
    f = x.form
    if isinstance(f, GroupElement) and x.family.order is not None:
        return Finite(x.family.order // math.gcd(f.g, x.family.order))
    return Finite(1) if is_idempotent(x) else Infinite()


def format_element(x: Element) -> str:
    """Shortlex-least word of x in caret notation; round-trips through reduce."""
    return format_runs(element_runs(x))


def element_runs(x: Element) -> list[Run]:
    """Maximal runs of the canonical word of x."""
    if isinstance(x.form, GroupElement):
        return _group_runs(x.family, x.form)
    f = x.form
    return [(letter, count)
            for letter, count in (("a", f.i), ("b", f.k), ("a", f.l), ("b", f.j))
            if count]


def element_to_json(x: Element) -> dict:
    """JSON object of x; BadExponent if json.dumps could not write a number."""
    f = x.form
    if isinstance(f, ReducedWord):
        out: dict = {"i": f.i, "k": f.k, "l": f.l, "j": f.j}
    else:
        out = {"g": f.g}
        if f.row is not None:
            out["row"] = f.row
        if f.col is not None:
            out["col"] = f.col
        out["order"] = bound_value(x.family.order)
    for value in out.values():
        if isinstance(value, int):
            decimal(value)
    return out


def sort_key(x: Element):
    """Stable ordering key for deterministic set and sequence output."""
    if isinstance(x.form, ReducedWord):
        f = x.form
        return (f.i, f.k, f.l, f.j)
    return (x.form.g, x.form.row or "", x.form.col or "")


def check_bound(bound: int, top: float = math.inf) -> None:
    """Reject a window bound below 1 or above top."""
    if bound < 1:
        raise OrthoxError(f"bound must be >= 1, got {bound}")
    if bound > top:
        raise OrthoxError(f"bound must be <= {top}, got {bound}")


def in_window(x: Element, bound: int) -> bool:
    """Whether x is one of window_elements(x.family, bound), in O(1)."""
    f = x.form
    if isinstance(f, GroupElement):
        return x.family.order is not None or -bound <= f.g <= bound
    return f.k <= bound and f.l <= bound


def window_elements(family: FamilySpec, bound: int) -> list[Element]:
    """All canonical elements whose exponents (or balance) fit the bound.

    A combinatorial window holds O(bound^2) elements, so bound stops at
    MAX_ELEMENTS_BOUND.  A finite-order group case lists every residue
    whatever the bound, so a window larger than the free family's at
    MAX_ELEMENTS_BOUND is rejected before anything is built.
    """
    check_bound(bound, MAX_ELEMENTS_BOUND)
    if isinstance(family, GroupCase):
        gs = range(-bound, bound + 1) if family.order is None else range(family.order)
        size = (gs.stop - gs.start) * len(family.rows) * len(family.cols)
        if size > (2 * MAX_ELEMENTS_BOUND) ** 2:
            raise OrthoxError(
                f"window holds more than {(2 * MAX_ELEMENTS_BOUND) ** 2:,} elements, "
                f"the free family's window at bound {MAX_ELEMENTS_BOUND}")
        return [Element(family, GroupElement(g, row, col))
                for g in gs for row in family.rows for col in family.cols]
    cols = window_cols(family, bound)
    out = [element_at(family, row, col)
           for row in window_rows(family, bound) for col in cols]
    out.sort(key=sort_key)
    return out


def window_rows(family: Combinatorial, bound: int) -> list[Part | None]:
    """Eggbox rows with k <= bound: the central row None, then heads (i, k)."""
    return [None] + [(i, k) for i in (0, 1) for k in range(i + 1, bound + 1)
                     if family.admits_head(i, k)]


def window_cols(family: Combinatorial, bound: int) -> list[Part | None]:
    """Eggbox columns with l <= bound: the central column None, then tails (l, j)."""
    return [None] + [(l, j) for j in (0, 1) for l in range(j + 1, bound + 1)
                     if family.admits_tail(l, j)]


def element_at(family: Combinatorial, row: Part | None, col: Part | None) -> Element:
    """The element a^i b^k a^l b^j of head `row` = (i, k) and tail `col` = (l, j).

    None is the central row or column; they meet at ab, which may also come
    as the lone tail (1, 1).  The parts may be any of the free family, and
    the family bounds apply here, so on the rows and columns the family
    admits they do nothing.
    """
    if row and col == (1, 1):
        col = None                      # a trailing ab is absorbed by any head
    i, k = row or (0, 0)
    l, j = col or ((0, 0) if row else (1, 1))
    if not family.admits_head(i, k):
        i, k = 0, k - 1                 # a b^k = b^(k-1) past the left bound
    if not family.admits_tail(l, j):
        l, j = l - 1, 0                 # a^l b = a^(l-1) past the right bound
    return Element(family, ReducedWord(i, k, l, j))


# -- the combine kernel ------------------------------------------------

def _abridge(k: int, l: int) -> tuple[Part | None, Part | None]:
    """Collapse one run a^k b^l into a head or tail part."""
    if k == 0:
        return ((0, l), None)
    if l == 0:
        return (None, (k, 0))
    if k == l:
        return (None, (1, 1))
    if l > k:
        return ((1, l - k + 1), None)
    return (None, (k - l + 1, 1))


def _combine(p1: Part | None, q1: Part | None,
             p2: Part | None, q2: Part | None) -> tuple[Part | None, Part | None]:
    """Multiply (p1 q1) by (p2 q2), colliding the inner tail and head."""
    if q1 is not None and p2 is not None:
        l, j = q1
        i, k = p2
        if i == j:
            zp, zq = _abridge(l, k)
        else:
            zp, zq = _abridge(l + 1 - j, k + 1 - i)
        if zp is not None:
            return (zp if p1 is None else _mul_heads(p1, zp), q2)
        return (p1, zq if q2 is None else _mul_tails(zq, q2))
    if p2 is not None:
        return (p2 if p1 is None else _mul_heads(p1, p2), q2)
    if q1 is not None:
        return (p1, q1 if q2 is None else _mul_tails(q1, q2))
    return (p1, q2)


def _mul_heads(x: Part, y: Part) -> Part:
    # a^i b^k . a^i' b^k'  =  a^i b^(k + k' - i')
    return (x[0], x[1] + y[1] - y[0])


def _mul_tails(x: Part, y: Part) -> Part:
    # a^l b^j . a^l' b^j'  =  a^(l + l' - j) b^j'
    return (x[0] + y[0] - x[1], y[1])


# -- group-case canonical words ---------------------------------------

def _group_runs(family: GroupCase, form: GroupElement) -> list[Run]:
    """The shortlex-least word with balance g and the tracked first/last letters.

    At a finite order d the balance may be g + d, g or g - d (any other
    only lengthens the word), and the shortest of the three words wins.
    Of two as short, the one of higher balance has a where they first
    differ, so it comes first and min keeps it.
    """
    g, d = form.g, family.order
    if d is None:
        return _shortest(g, form.row, form.col)
    return min([_shortest(h, form.row, form.col) for h in (g + d, g, g - d)],
               key=lambda runs: sum(count for _, count in runs))


def _free_end(g: int, other: str | None) -> str:
    """An untracked end: the letter g favours; at g = 0 the other end's opposite, or a."""
    if g:
        return "a" if g > 0 else "b"
    return "b" if other == "a" else "a"


def _shortest(g: int, first: str | None, last: str | None) -> list[Run]:
    """The shortest word with balance g from `first` to `last`; None is untracked."""
    first = first or _free_end(g, last)
    last = last or _free_end(g, first)
    if first != last:
        count = {"a": max(g, 0) + 1, "b": max(-g, 0) + 1}
        return [(first, count[first]), (last, count[last])]
    lead = g if first == "a" else -g       # balance in favour of the end letter
    if lead >= 1:
        return [(first, lead)]
    other = "b" if first == "a" else "a"
    return [(first, 1), (other, 2 - lead), (first, 1)]
