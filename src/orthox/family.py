"""Family parameter objects and their defining relations.

Two kinds of semigroup are served.  ``Combinatorial(n, m)`` is presented by

    aba = a,  bab = b,  a^2 b^2 = ab,
    a^(n+1) b = a^n   (only when n is finite),
    a b^(m+1) = b^m   (only when m is finite),

with ``Combinatorial(1, 1)`` being the bicyclic semigroup.  ``GroupCase``
covers the four families whose generators lie in subgroups; there the base
presentation gains ``b^2 a^2 = ba`` and optionally the absorptions
``a^2 b = a`` / ``a b^2 = b`` and a finite generator order.

Bounds and orders use ``None`` for "infinite".  Each family object owns
its eggbox shape: ``Combinatorial.admits_head`` / ``admits_tail`` say which
rows and columns the bounds leave, ``GroupCase.rows`` / ``cols`` which
subgroup cells the absorptions leave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OrthoxError


@dataclass(frozen=True)
class Relation:
    """An unoriented defining relation lhs = rhs between two words."""

    lhs: str
    rhs: str


@dataclass(frozen=True)
class Combinatorial:
    """Family with nongroup generators; bounds may be None (infinite)."""

    right_bound: int | None  # n: caps a^l b at l = n
    left_bound: int | None   # m: caps a b^k at k = m

    def __post_init__(self):
        for value in (self.right_bound, self.left_bound):
            if value is not None and value < 1:
                raise OrthoxError(f"bound must be >= 1 or None, got {value}")

    def admits_head(self, i: int, k: int) -> bool:
        """Whether the head a^i b^k fits the left bound: a b^k needs k <= m."""
        return not i or self.left_bound is None or k <= self.left_bound

    def admits_tail(self, l: int, j: int) -> bool:
        """Whether the tail a^l b^j fits the right bound: a^l b needs l <= n."""
        return not j or self.right_bound is None or l <= self.right_bound


@dataclass(frozen=True)
class GroupCase:
    """Family with group generators.

    absorb_left means a(ab) = a, absorb_right means (ab)b = b.  The flag
    pair selects the band shape: (False, False) a 2x2 rectangular band,
    (False, True) a right zero pair, (True, False) a left zero pair,
    (True, True) a single idempotent.
    """

    absorb_left: bool
    absorb_right: bool
    order: int | None

    def __post_init__(self):
        if self.order is not None and self.order < 1:
            raise OrthoxError(f"order must be >= 1 or None, got {self.order}")

    @property
    def case_number(self) -> int:
        flags = (self.absorb_left, self.absorb_right)
        return next(case for case, f in _CASE_FLAGS.items() if f == flags)

    @property
    def tracks_row(self) -> bool:
        # ab^2 = b merges the a-row into the b-row, so the first letter
        # stays meaningful only without the right absorption.
        return not self.absorb_right

    @property
    def tracks_col(self) -> bool:
        return not self.absorb_left

    @property
    def rows(self) -> tuple[str | None, ...]:
        """Eggbox row keys: the first letters, or None when untracked."""
        return ("a", "b") if self.tracks_row else (None,)

    @property
    def cols(self) -> tuple[str | None, ...]:
        """Eggbox column keys: the last letters, or None when untracked."""
        return ("a", "b") if self.tracks_col else (None,)

    def residue(self, g: int) -> int:
        """The balance g as an element coordinate: reduced mod a finite order."""
        return g if self.order is None else g % self.order

    def cell(self, first: str, last: str) -> tuple[str | None, str | None]:
        """Row and column key of a word with these first and last letters."""
        return (first if self.tracks_row else None,
                last if self.tracks_col else None)


# (absorb_left, absorb_right) of group cases 1..4.
_CASE_FLAGS = {1: (False, False), 2: (False, True),
               3: (True, False), 4: (True, True)}


FamilySpec = Combinatorial | GroupCase


def relations_of(family: FamilySpec, max_len: int | None = None) -> list[Relation]:
    """The defining relations of the family, mutual-inverse axioms first.

    With max_len, only the relations that can act on words of at most
    max_len letters are spelled, so a huge bound or order costs nothing.
    A bound relation stays when it has at most max_len letters: each
    combinatorial presentation is complete as written, so a longer one
    never rewrites those words.  The order relation a^(d+1) = a stays when
    d <= 2 max_len.  That bound is checked, not proved: for max_len <= 10
    each group case has the normal forms of order inf on those words at
    d = 2 max_len + 1 and 2 max_len + 2, and case 4 differs at d = 2 max_len.
    """
    top = math.inf if max_len is None else max_len
    rels = [Relation("aba", "a"), Relation("bab", "b"), Relation("aabb", "ab")]
    if isinstance(family, Combinatorial):
        n, m = family.right_bound, family.left_bound
        if n is not None and n + 2 <= top:
            rels.append(Relation("a" * (n + 1) + "b", "a" * n))
        if m is not None and m + 2 <= top:
            rels.append(Relation("a" + "b" * (m + 1), "b" * m))
        return rels
    rels.append(Relation("bbaa", "ba"))
    if family.absorb_left:
        rels.append(Relation("aab", "a"))
    if family.absorb_right:
        rels.append(Relation("abb", "b"))
    if family.order is not None and family.order <= 2 * top:
        rels.append(Relation("a" * (family.order + 1), "a"))
    return rels


def dual_of(family: FamilySpec) -> FamilySpec:
    """Swap the roles of a and b: an involution on family specs."""
    if isinstance(family, Combinatorial):
        return Combinatorial(family.left_bound, family.right_bound)
    return GroupCase(family.absorb_right, family.absorb_left, family.order)


def describe(family: FamilySpec) -> str:
    if isinstance(family, Combinatorial):
        return "Combinatorial({},{})".format(
            bound_value(family.right_bound), bound_value(family.left_bound))
    return "GroupCase({}, order={})".format(
        family.case_number, bound_value(family.order))


def family_to_json(family: FamilySpec) -> dict:
    if isinstance(family, Combinatorial):
        return {"kind": "combinatorial",
                "right_bound": bound_value(family.right_bound),
                "left_bound": bound_value(family.left_bound)}
    return {"kind": "group",
            "case": family.case_number,
            "absorb_left": family.absorb_left,
            "absorb_right": family.absorb_right,
            "order": bound_value(family.order)}


def parse_bound(text: str, name: str = "bound") -> int | None:
    """Parse a CLI bound: a positive integer or the literal "inf".

    name is what an error message blames, such as the option it came from.
    """
    if text.strip().lower() == "inf":
        return None
    try:
        value = int(text)
    except ValueError:
        raise OrthoxError(f"{name} must be a positive integer or 'inf', got {text!r}")
    if value < 1:
        raise OrthoxError(f"{name} must be >= 1, got {value}")
    return value


def parse_combinatorial(text: str) -> Combinatorial:
    """Parse the CLI family selector "n,m" (e.g. "3,inf")."""
    parts = text.split(",")
    if len(parts) != 2:
        raise OrthoxError(f"family selector must look like 'n,m', got {text!r}")
    return Combinatorial(parse_bound(parts[0], "--family bound"),
                         parse_bound(parts[1], "--family bound"))


def group_case(case: int, order: int | None) -> GroupCase:
    """Build a GroupCase from its 1..4 case number."""
    if case not in _CASE_FLAGS:
        raise OrthoxError(f"group case must be 1..4, got {case}")
    return GroupCase(*_CASE_FLAGS[case], order)


def bound_value(value: int | None) -> int | str:
    """A bound or order as written out: the integer, or "inf" for None."""
    return "inf" if value is None else value
