"""Shortlex Knuth-Bendix completion that records derivation peaks.

Words are ordered shortlex: shorter first, then alphabetically with
a < b.  That is the length-lex order of the oracle's word numbers, so a
word's normal form under a complete system is the least word equal to it,
the representative the oracle's closure would pick.

Each rule lhs -> rhs carries a peak P: an upper bound on the longest word
of one derivation of lhs = rhs by single defining-relation steps.  A
defining relation, oriented, has P = |lhs|.  A rule found from a critical
pair on an overlap word o gets the largest height over the steps of its
derivation: the two first steps from o and every step down to the two
normal forms, where a step by rule r inside the word x.lhs(r).y has height
|x| + |y| + P(r).  Rules are never interreduced, so every recorded peak
stays an upper bound: a rule is kept, with its derivation, once found.

Rewriting a word w to its normal form with such rules never lengthens it,
so each of its steps has height at most |w| + max(P - |lhs|); the oracle
uses that bound to certify its bounded closure.  The peaks come from the
first derivation found, so some are larger than they need be.

complete() gives up and returns None when a rule's slack P - |lhs|
exceeds max_slack, an lhs grows longer than max_lhs, or the rules pass
MAX_RULES; a shortlex completion need not terminate (aba = bab does not).
"""

from __future__ import annotations

from typing import NamedTuple

MAX_RULES = 48


class Rule(NamedTuple):
    lhs: str
    rhs: str
    peak: int


def complete(relations: list[tuple[str, str]], max_slack: int,
             max_lhs: int) -> list[Rule] | None:
    """A complete shortlex system for the relations, or None (see above)."""
    rules: list[Rule] = []
    index: dict[str, Rule] = {}       # the first rule of each lhs, for rewriting
    lengths: list[int] = []           # the distinct lhs lengths, ascending

    def add(u: str, v: str, peak: int) -> bool:
        """Adopt u = v; False when completion must give up."""
        if u == v:
            return True
        lhs, rhs = (u, v) if _shortlex(u) > _shortlex(v) else (v, u)
        if peak - len(lhs) > max_slack or len(lhs) > max_lhs or len(rules) == MAX_RULES:
            return False
        rule = Rule(lhs, rhs, peak)
        rules.append(rule)
        index.setdefault(lhs, rule)
        if len(lhs) not in lengths:
            lengths.append(len(lhs))
            lengths.sort()
        return True

    for u, v in relations:
        if not add(u, v, max(len(u), len(v))):
            return None
    done = 0
    while done < len(rules):
        new = rules[done]
        for old in rules[:done + 1]:
            pairs = _overlaps(old, new) if old is new else _overlaps(old, new) + _overlaps(new, old)
            for left, right in pairs:
                # Each side is (word after the first step, that step's height).
                (n1, h1), (n2, h2) = (_normalize("", *left, index, lengths),
                                      _normalize("", *right, index, lengths))
                if not add(n1, n2, max(h1, h2)):
                    return None
        done += 1
    return rules


def normal_forms(rules: list[Rule], max_len: int) -> list[str]:
    """The normal forms of all words up to max_len, indexed by word number.

    Word number n of length L has bits n + 2 - 2 ** L; dropping its last
    letter gives word number (n + 2) // 2 - 2, whose normal form is
    irreducible, so only the last letter needs rewriting in.
    """
    index: dict[str, Rule] = {}
    for rule in rules:
        index.setdefault(rule.lhs, rule)
    lengths = sorted({len(rule.lhs) for rule in rules})
    out: list[str] = []
    for n in range(2 ** (max_len + 1) - 2):
        done = out[(n + 2) // 2 - 2] if n >= 2 else ""
        out.append(_normalize(done, "ab"[n & 1], 0, index, lengths)[0])
    return out


def _overlaps(r1: Rule, r2: Rule) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """The critical pairs of r1 and r2, each side (rewritten word, height).

    r2's lhs either starts on a proper suffix of r1's lhs or sits inside
    it; the two sides are one step by r1 and one by r2 from that word.
    """
    l1, l2 = r1.lhs, r2.lhs
    out = []
    for t in range(1, min(len(l1), len(l2))):
        if l1[-t:] == l2[:t]:
            tail, head = l2[t:], l1[:-t]
            out.append(((r1.rhs + tail, len(tail) + r1.peak),
                        (head + r2.rhs, len(head) + r2.peak)))
    if r1 is not r2:
        at = l1.find(l2)
        while at != -1:
            out.append(((r1.rhs, r1.peak),
                        (l1[:at] + r2.rhs + l1[at + len(l2):], len(l1) - len(l2) + r2.peak)))
            at = l1.find(l2, at + 1)
    return out


def _normalize(done: str, todo: str, top: int, index: dict[str, Rule],
               lengths: list[int]) -> tuple[str, int]:
    """Rewrite done + todo, done irreducible, to its normal form.

    Returns the normal form and the larger of top and every step's height.
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
                top = max(top, len(done) + len(todo) - n + rule.peak)
                done, todo = done[:-n], rule.rhs + todo
                break
    return done, top


def _shortlex(word: str) -> tuple[int, str]:
    return len(word), word
