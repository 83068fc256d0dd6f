"""Shortlex Knuth-Bendix completion of a string-rewriting system.

Words are ordered shortlex: shorter first, then alphabetically with
a < b.  That is the order of words.all_words, and every rewrite makes a
word smaller in it, so a word's normal form under a complete system is
the least word equal to it.

Each relation is oriented into a rule, a family.Relation from its
shortlex-larger side to its smaller one, and each critical pair whose
sides have different normal forms adds a rule between them.  Rules are
never interreduced.

A shortlex completion need not terminate (aba = bab does not), so
complete() leaves out every rule whose lhs is longer than max_lhs and
every rule past MAX_RULES, and reports that it did not finish.  It goes
on with the rules it has, and still stops: the rule list never passes
MAX_RULES.  Each rule it keeps is still a consequence of the relations,
so words sharing a normal form are equal; only when it finished are the
rules complete.
"""

from __future__ import annotations

from .family import Relation
from .words import walk

MAX_RULES = 48


def complete(relations: list[tuple[str, str]], max_lhs: int) -> tuple[list[Relation], bool]:
    """(rules, finished): a shortlex system for the relations (see above)."""
    rules: list[Relation] = []
    index: dict[str, Relation] = {}   # the first rule of each lhs, for rewriting
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
        rule = Relation(lhs, rhs)
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


def normal_forms(rules: list[Relation], max_len: int) -> list[str]:
    """The normal forms of all words up to max_len, in length-lex order.

    A word's prefix has an irreducible normal form, so only the last letter
    needs rewriting in, and words.walk does that once per (form, letter).
    """
    index: dict[str, Relation] = {}
    for rule in rules:
        index.setdefault(rule.lhs, rule)
    lengths = sorted({len(rule.lhs) for rule in rules})
    ids, forms = walk([_normalize("", x, index, lengths) for x in "ab"],
                      lambda done, x: _normalize(done, x, index, lengths), max_len)
    return [forms[n] for n in ids]


def _overlaps(r1: Relation, r2: Relation) -> list[tuple[str, str]]:
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


def _normalize(done: str, todo: str, index: dict[str, Relation], lengths: list[int]) -> str:
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
