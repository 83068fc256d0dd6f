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

from dataclasses import dataclass
from typing import Sequence

from .family import (
    Combinatorial,
    FamilySpec,
    GroupCase,
    Relation,
    order_gcd,
)
from .normal_form import ReducedWord, reduce
from .words import balance, parse_runs

FREE_MOST = Combinatorial(None, None)


@dataclass(frozen=True)
class Redundant:
    def __str__(self):
        return "Redundant"


@dataclass(frozen=True)
class RightBound:
    n: int

    def __str__(self):
        return f"RightBound({self.n})"


@dataclass(frozen=True)
class LeftBound:
    m: int

    def __str__(self):
        return f"LeftBound({self.m})"


@dataclass(frozen=True)
class Both:
    n: int
    m: int

    def __str__(self):
        return f"Both({self.n},{self.m})"


@dataclass(frozen=True)
class Impossible:
    def __str__(self):
        return "Impossible"


RelationClass = Redundant | RightBound | LeftBound | Both | Impossible


def classify_relation(u: str, v: str) -> RelationClass:
    """Classify the relation u = v against nongroup generators."""
    ru = reduce(u, FREE_MOST).form
    rv = reduce(v, FREE_MOST).form
    assert isinstance(ru, ReducedWord) and isinstance(rv, ReducedWord)
    if ru == rv:
        return Redundant()
    if _shape(ru) != _shape(rv):
        return Impossible()
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


def canonical_relations(verdict: RelationClass) -> list[Relation]:
    """The normalized relation(s) a classified verdict stands for."""
    out: list[Relation] = []
    if isinstance(verdict, (RightBound, Both)):
        n = verdict.n
        out.append(Relation("a" * (n + 1) + "b", "a" * n))
    if isinstance(verdict, (LeftBound, Both)):
        m = verdict.m
        out.append(Relation("a" + "b" * (m + 1), "b" * m))
    return out


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
    absorb_left = False
    absorb_right = False
    deltas = []
    for r in rels:
        u, v = parse_runs(r.lhs), parse_runs(r.rhs)
        if u[0][0] != v[0][0]:
            absorb_right = True
        if u[-1][0] != v[-1][0]:
            absorb_left = True
        deltas.append(balance(u) - balance(v))
    return GroupCase(absorb_left, absorb_right, order_gcd(deltas))


def _shape(r: ReducedWord) -> str:
    if r.l == 0:
        return "head"
    if r.k == 0:
        return "tail"
    return "full"
