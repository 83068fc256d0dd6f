"""Shortlex Knuth-Bendix completion of a string-rewriting system.

Words are ordered shortlex: shorter first, then alphabetically with
a < b.  That is the oracle's length-lex order, and every rewrite makes a
word smaller in it, so a word's normal form under a complete system is
the least word equal to it.

Each relation is oriented from its shortlex-larger side to its smaller one,
and each critical pair whose sides have different normal forms adds a
rule between them.  Rules are never interreduced.

A shortlex completion need not terminate (aba = bab does not), so
complete() leaves out every rule whose lhs is longer than max_lhs and
every rule past MAX_RULES, and reports that it did not finish.  It goes
on with the rules it has, and still stops: the rule list never passes
MAX_RULES.  Each rule it keeps is still a consequence of the relations,
so words sharing a normal form are equal; only when it finished are the
rules complete.
"""

from __future__ import annotations

from typing import NamedTuple

MAX_RULES = 48


class Rule(NamedTuple):
    lhs: str
    rhs: str


def complete(relations: list[tuple[str, str]], max_lhs: int) -> tuple[list[Rule], bool]:
    """(rules, finished): a shortlex system for the relations (see above)."""
    rules: list[Rule] = []
    index: dict[str, Rule] = {}       # the first rule of each lhs, for rewriting
    lengths: list[int] = []           # the distinct lhs lengths, ascending
    finished = True

    def add(u: str, v: str) -> None:
        """Adopt u = v, unless it is trivial or over a limit."""
        nonlocal finished
        if u == v:
            return
        lhs, rhs = (u, v) if _shortlex(u) > _shortlex(v) else (v, u)
        if len(lhs) > max_lhs or len(rules) == MAX_RULES:
            finished = False
            return
        rule = Rule(lhs, rhs)
        rules.append(rule)
        index.setdefault(lhs, rule)
        if len(lhs) not in lengths:
            lengths.append(len(lhs))
            lengths.sort()

    for u, v in relations:
        add(u, v)
    for done, new in enumerate(rules):        # rules grows as it is read
        for old in rules[:done + 1]:
            pairs = _overlaps(old, new) if old is new else _overlaps(old, new) + _overlaps(new, old)
            for left, right in pairs:
                add(_normalize("", left, index, lengths), _normalize("", right, index, lengths))
    return rules, finished


def normal_forms(rules: list[Rule], max_len: int) -> list[str]:
    """The normal forms of all words up to max_len, in length-lex order.

    Word n in that order, of length L, spells n + 2 - 2 ** L in binary with
    a = 0, b = 1; dropping its last letter gives word (n + 2) // 2 - 2,
    whose normal form is irreducible, so only the last letter needs
    rewriting in.
    """
    index: dict[str, Rule] = {}
    for rule in rules:
        index.setdefault(rule.lhs, rule)
    lengths = sorted({len(rule.lhs) for rule in rules})
    out: list[str] = []
    for n in range(2 ** (max_len + 1) - 2):
        done = out[(n + 2) // 2 - 2] if n >= 2 else ""
        out.append(_normalize(done, "ab"[n & 1], index, lengths))
    return out


def _overlaps(r1: Rule, r2: Rule) -> list[tuple[str, str]]:
    """The critical pairs of r1 and r2.

    r2's lhs either starts on a proper suffix of r1's lhs or sits inside
    it; the two sides are one step by r1 and one by r2 from that word.
    """
    l1, l2 = r1.lhs, r2.lhs
    out = []
    for t in range(1, min(len(l1), len(l2))):
        if l1[-t:] == l2[:t]:
            out.append((r1.rhs + l2[t:], l1[:-t] + r2.rhs))
    if r1 is not r2:
        at = l1.find(l2)
        while at != -1:
            out.append((r1.rhs, l1[:at] + r2.rhs + l1[at + len(l2):]))
            at = l1.find(l2, at + 1)
    return out


def _normalize(done: str, todo: str, index: dict[str, Rule], lengths: list[int]) -> str:
    """The normal form of done + todo, done irreducible.

    Letters move from todo to done one at a time, so a redex can only be a
    suffix of done; a rewrite puts its rhs back at the front of todo.
    """
    while todo:
        done, todo = done + todo[0], todo[1:]
        for n in lengths:
            if n > len(done):
                break
            rule = index.get(done[-n:])
            if rule is not None:
                done, todo = done[:-n], rule.rhs + todo
                break
    return done


def _shortlex(word: str) -> tuple[int, str]:
    return len(word), word
