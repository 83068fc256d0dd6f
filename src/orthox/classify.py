"""Relation classification and family inference from presentations.

Every nontrivial relation compatible with nongroup generators is
equivalent to a right bound a^(n+1) b = a^n, a left bound
a b^(m+1) = b^m, or both at once.  The verdict falls out of the two
reduced shapes in the free-most combinatorial family: their invariants
k - i and l - j must agree coordinatewise, and the i / j flips say which
bounds are being imposed.  Shape or invariant mismatches can hold in no
family with nongroup generators; they hand the presentation over to the
group-case analysis, where relations act on the letter balance and on
the first/last letters.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Sequence

from .family import Combinatorial, FamilySpec, GroupCase, Relation
from .normal_form import ReducedWord, reduce

FREE_MOST = Combinatorial(None, None)
FREE_GROUP = GroupCase(False, False, None)


class _Verdict:
    def __str__(self):
        """The class name, then any bounds in parentheses: "Both(3,2)"."""
        args = ",".join(map(str, astuple(self)))
        return type(self).__name__ + (f"({args})" if args else "")


@dataclass(frozen=True)
class Redundant(_Verdict):
    pass


@dataclass(frozen=True)
class RightBound(_Verdict):
    n: int


@dataclass(frozen=True)
class LeftBound(_Verdict):
    m: int


@dataclass(frozen=True)
class Both(_Verdict):
    n: int
    m: int


@dataclass(frozen=True)
class Impossible(_Verdict):
    pass


RelationClass = Redundant | RightBound | LeftBound | Both | Impossible


def classify_relation(u: str, v: str) -> RelationClass:
    """Classify the relation u = v against nongroup generators."""
    ru = reduce(u, FREE_MOST).form
    rv = reduce(v, FREE_MOST).form
    assert isinstance(ru, ReducedWord) and isinstance(rv, ReducedWord)
    if ru == rv:
        return Redundant()
    # The invariants tell the shapes apart too: k - i is 0 exactly without
    # a head, and l - j is 0 exactly without a tail or at ab.
    if (ru.k - ru.i, ru.l - ru.j) != (rv.k - rv.i, rv.l - rv.j):
        return Impossible()
    head_flip = ru.i != rv.i
    tail_flip = ru.j != rv.j
    dm = ru.k - ru.i
    dn = ru.l - ru.j
    if head_flip and tail_flip:
        return Both(dn, dm)
    if head_flip:
        return LeftBound(dm)
    return RightBound(dn)


def infer_family(rels: Sequence[Relation]) -> FamilySpec:
    """Recover the family presented by the base axioms plus these relations.

    The base presentation (mutual inverses and ab = a^2 b^2) is implicit.
    When no relation leaves the nongroup universe the least right and left
    bounds are read off the verdicts.  Otherwise the generators sit in
    subgroups: a first-letter collapse forces (ab)b = b, a last-letter
    collapse forces a(ab) = a, and the generator order is the gcd of the
    letter-balance differences.
    """
    verdicts = [classify_relation(r.lhs, r.rhs) for r in rels]
    if not any(isinstance(v, Impossible) for v in verdicts):
        ns = [v.n for v in verdicts if isinstance(v, (RightBound, Both))]
        ms = [v.m for v in verdicts if isinstance(v, (LeftBound, Both))]
        return Combinatorial(min(ns) if ns else None, min(ms) if ms else None)
    pairs = [(reduce(r.lhs, FREE_GROUP).form, reduce(r.rhs, FREE_GROUP).form)
             for r in rels]
    return GroupCase(any(u.col != v.col for u, v in pairs),
                     any(u.row != v.row for u, v in pairs),
                     math.gcd(*(u.g - v.g for u, v in pairs)) or None)
