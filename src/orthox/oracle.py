"""Brute-force validator: bounded bidirectional closure over raw words.

The closure never consults the reduction engine.  Two words are joined
when one defining relation, applied in either direction at one position,
turns one into the other and neither is longer than the length cap; the
classes are the connected components of that graph.  Two words in one
class are provably equal in the presented semigroup; two words in
different classes are merely "not known equal" at this cap.

Most inputs are settled by a certificate, without the sweep below.
rewriting.complete runs a shortlex Knuth-Bendix completion of the
relations.  Rewriting never lengthens a word, so on words of length
<= max_len only rules with |lhs| <= max_len fire, each inside a word
x.lhs.y no longer than max_len.  When _joined links the sides of each
such rule by defining-relation steps through words of at most
|lhs| + cap - max_len letters, every word up to max_len is joined at this
cap to its normal form: the length-lex least word of its class, the
representative the union-find would pick.  Joined words share a normal
form, so the classes are the normal-form classes, at cap + 2 too, and
the cap warning is false.  The sweep runs when completion gives up or a
rule is not joined.  Nothing is kept between calls.  A bound relation
longer than cap + 2 never acts, so closure_classes leaves it out unspelled.

Otherwise the closure is swept into a union-find.  Each relation is
oriented once, from its longer side to its shorter one (kept as written
on a length tie; a relation with equal sides is dropped).  Every edge
then joins a word to a rewrite no longer than it, so sweeping the words
of each length up to the cap with every oriented relation at every
position finds each edge exactly once, and after the words of length
<= cap have been swept the union-find holds the closure at the cap.

The sweep runs on word numbers, not strings.  A word w of length L over
a = 0, b = 1 is numbered off(L) + bits(w) with off(L) = 2 ** L - 2, so
numeric order is length-lex order and bin(number + 2) is "0b1" followed
by the word's bits.  The rule src -> dst (s and d letters, numbered
bitwise S and D) applied after a prefix P of p letters, followed by a
suffix Q of q letters, joins

    off(L) + (P << (s + q)) + (S << q) + Q
    off(L - s + d) + (P << (d + q)) + (D << q) + Q,

so for fixed L, rule and p (or q) the edges pair up two arithmetic
progressions: a block, read as a pair of list slices.  The union-find is
a flat list in which every root is the least number of its class, that
is its length-lex least word, and every parent is smaller than its
child.  Strings are spelled only for the words of length <= max_len, to
key the classes.

The union-find takes whole blocks, lengths in ascending order.  When
length L starts, every shorter word points at its root.  A shrinking
rule's rewrites are shorter than L, so the slice of their parents is a
list of roots, and one slice assignment labels every word of the block
with a root it is joined to.  A second pass compares each block's labels
with its rewrites' labels, one list compare per block; only a block that
differs (a word whose rewrites lie in two classes, or a rule between
words of one length, which only user presentations have) adds its
(label, label) pairs to a set of merges.  The merges are union-found,
and, after a length that merged classes, every word up to L is
re-pointed at its root by a chunked gather.  Python-level work is per block
and per merge, not per edge.

The cap warning is a saturation heuristic: the same sweep goes on over
lengths cap + 1 and cap + 2, and the flag is set when that changed the
partition of the words of length <= max_len, meaning the stated cap had
not converged.

verify_reducer reduces each word from its runs, read off its letters,
and numbers each distinct answer once.  It compares closure equality with
reducer equality over all pairs of words up to max_len by counting: the
pairs equal under both, under the closure and under the reducer are sums
of C(size, 2) over the joint classes, the closure classes and the
reducer classes.  Only when those counts disagree does it list the
mismatched pairs, walking the pairs within each class, in
itertools.combinations order.

With the cap check the union-find holds 2 ** (cap + 3) - 2 words, so
caps stop at MAX_CAP; listing mismatches can walk every pair of words up
to max_len, so verify_reducer's lengths stop at MAX_VERIFY_LEN.  Both
limits, and the relations' alphabet, are checked before anything is
allocated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import OrthoxError
from .family import FamilySpec, Relation, relations_of
from . import rewriting
from .normal_form import Element, reduce_runs

# At both limits `orthox verify` takes 0.10-0.15 s and 16-17 MB where the
# certificate holds and 0.15-0.26 s and 26-27 MB where it falls back (the
# order-5 group cases): fresh processes, shared 2-vCPU host, Python 3.11.
MAX_CAP = 15           # a union-find over 2 ** 18 - 2 words with the cap check
MAX_VERIFY_LEN = 10    # 2,046 words; listing mismatches may walk 2.1 million pairs

_CHUNK = 4096          # words re-pointed per temporary list

_BITS = str.maketrans("ab", "01")
_LETTERS = str.maketrans("01", "ab")


@dataclass
class ClosureTable:
    max_len: int
    cap: int
    classes: dict[str, str]           # word -> length-lex minimal representative,
                                      # words in length-lex order
    cap_warning: bool = False

    def groups(self) -> list[tuple[str, ...]]:
        by_rep: dict[str, list[str]] = {}
        for word, rep in self.classes.items():
            by_rep.setdefault(rep, []).append(word)
        out = [tuple(sorted(ws, key=_lenlex)) for ws in by_rep.values()]
        out.sort(key=lambda g: _lenlex(g[0]))
        return out

    def same_class(self, w1: str, w2: str) -> bool:
        return self.classes[w1] == self.classes[w2]


@dataclass
class VerifyReport:
    agreements: int
    reducer_splits_closure: list[tuple[str, str]]
    closure_splits_reducer: list[tuple[str, str]]
    cap_warning: bool

    def to_json(self) -> dict:
        mismatches = (
            [{"kind": "reducer_splits_closure", "left": a, "right": b}
             for a, b in self.reducer_splits_closure]
            + [{"kind": "closure_splits_reducer", "left": a, "right": b}
               for a, b in self.closure_splits_reducer])
        return {"agreements": self.agreements,
                "mismatches": mismatches,
                "cap_warning": self.cap_warning}


def closure_classes(family: FamilySpec, max_len: int, cap: int | None = None,
                    check_cap: bool = True) -> ClosureTable:
    """Closure classes of all words of length <= max_len for the family."""
    cap = _checked_cap(max_len, cap)
    return closure_from_relations(relations_of(family, cap + 2), max_len, cap, check_cap)


def closure_from_relations(rels: list[Relation], max_len: int,
                           cap: int | None = None,
                           check_cap: bool = True) -> ClosureTable:
    """Same as closure_classes but over an explicit relation list."""
    cap = _checked_cap(max_len, cap)
    for r in rels:
        if not (r.lhs and r.rhs and set(r.lhs + r.rhs) <= {"a", "b"}):
            raise OrthoxError(f"relation {r.lhs!r} = {r.rhs!r}: each side "
                              "must be a nonempty word in a and b")
    pairs = [(r.lhs, r.rhs) for r in rels]
    rules = rewriting.complete(pairs, max_lhs=cap)
    if rules is not None and all(_joined(r.lhs, r.rhs, pairs, len(r.lhs) + cap - max_len)
                                 for r in rules if len(r.lhs) <= max_len):
        forms = rewriting.normal_forms(rules, max_len)
        return ClosureTable(max_len, cap, dict(zip(_spelled(len(forms)), forms)))
    return _swept_closure(rels, max_len, cap, check_cap)


def _joined(u: str, v: str, pairs: list[tuple[str, str]], height: int) -> bool:
    """Whether relation steps, either way round, lead from u to v within height letters."""
    steps = pairs + [(rhs, lhs) for lhs, rhs in pairs]
    seen, queue = {u}, [u]
    for word in queue:            # grows as it is read: breadth first
        for src, dst in steps:
            at = word.find(src) if len(word) - len(src) + len(dst) <= height else -1
            while at != -1:
                rewrite = word[:at] + dst + word[at + len(src):]
                if rewrite == v:
                    return True
                if rewrite not in seen:
                    seen.add(rewrite)
                    queue.append(rewrite)
                at = word.find(src, at + 1)
    return False


def _swept_closure(rels: list[Relation], max_len: int, cap: int,
                   check_cap: bool) -> ClosureTable:
    """The closure table from the block sweep over every word up to the cap."""
    oriented = [(r.lhs, r.rhs) if len(r.lhs) >= len(r.rhs) else (r.rhs, r.lhs)
                for r in rels if r.lhs != r.rhs]
    rules = [(int(src.translate(_BITS), 2), len(src), int(dst.translate(_BITS), 2), len(dst))
             for src, dst in oriented]
    parent = _parents(_offset(cap + 3 if check_cap else cap + 1))
    for length in range(1, cap + 1):
        _sweep(parent, rules, length)
    hi = _offset(max_len + 1)
    before = parent[:hi]
    words = _spelled(hi)
    classes = {words[n]: words[root] for n, root in enumerate(before)}
    warning = False
    if check_cap:
        for length in (cap + 1, cap + 2):
            _sweep(parent, rules, length)
        warning = parent[:hi] != before
    return ClosureTable(max_len, cap, classes, warning)


def verify_reducer(family: FamilySpec, max_len: int, cap: int | None = None,
                   names: tuple[str, str] = ("max_len", "cap")) -> VerifyReport:
    """Compare closure equality with reduction-engine equality on every word pair.

    names are what a range error blames for max_len and cap, such as the
    options they came from.
    """
    if max_len > MAX_VERIFY_LEN:
        raise OrthoxError(f"{names[0]} must be <= {MAX_VERIFY_LEN}, got {max_len}")
    cap = _checked_cap(max_len, cap, *names)
    table = closure_classes(family, max_len, cap)
    vocab = list(table.classes)
    reps = list(table.classes.values())
    # Each distinct answer becomes an int once, so the compare hashes ints.
    ids: dict[Element, int] = {}
    canon = [ids.setdefault(reduce_runs(_runs(w), family), len(ids)) for w in vocab]
    both = _equal_pairs(zip(reps, canon))
    reducer_splits = _split_pairs(vocab, reps, canon) if _equal_pairs(reps) > both else []
    closure_splits = _split_pairs(vocab, canon, reps) if _equal_pairs(canon) > both else []
    agreements = (len(vocab) * (len(vocab) - 1) // 2
                  - len(reducer_splits) - len(closure_splits))
    return VerifyReport(agreements, reducer_splits, closure_splits,
                        table.cap_warning)


def _checked_cap(max_len: int, cap: int | None, max_len_name: str = "max_len",
                 cap_name: str = "cap") -> int:
    """The cap, max_len + 4 when None; OrthoxError naming the bound out of range."""
    if max_len < 1:
        raise OrthoxError(f"{max_len_name} must be >= 1, got {max_len}")
    if cap is None:
        cap, cap_name = max_len + 4, f"{cap_name} (default {max_len_name} + 4)"
    if max_len > cap:
        raise OrthoxError(f"{max_len_name} must be <= {cap_name}, got {max_len} > {cap}")
    if cap > MAX_CAP:
        raise OrthoxError(f"{cap_name} must be <= {MAX_CAP}, got {cap}")
    return cap


def all_words(max_len: int) -> list[str]:
    out = []
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product("ab", repeat=length))
    return out


def _parents(size: int) -> list[int]:
    """A union-find over the word numbers below size, each its own root."""
    return list(range(size))


def _sweep(parent: list[int], rules, length: int) -> None:
    """Join every word of this length to its rewrites, a block at a time.

    On entry every shorter word points at its root; on return every word
    up to this length does.
    """
    # A shrinking rule's rewrites are shorter words, so their slice is a
    # list of roots; copying it labels each word with a rewrite's root.
    shrinking = list(_blocks([(src, s, dst, d) for src, s, dst, d in rules if s > d], length))
    for xs, ys in shrinking:
        parent[xs] = parent[ys]
    # A block whose labels differ from its rewrites' labels (a word with
    # rewrites in two classes, or a rule between words of one length)
    # names the classes that merge.
    ties = _blocks([(src, s, dst, d) for src, s, dst, d in rules if s == d], length)
    merges: set[tuple[int, int]] = set()
    for xs, ys in itertools.chain(shrinking, ties):
        labels, targets = parent[xs], parent[ys]
        if labels != targets:
            merges.update(zip(labels, targets))
    if not merges:
        return

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in merges:
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)
    for a, b in merges:
        parent[a], parent[b] = find(a), find(b)
    # Every label was a root, and each of those that moved now points at
    # its final root, so a word's root is its parent's parent.  A chunk at
    # a time keeps the copies small near MAX_CAP.
    hi = _offset(length + 1)
    for start in range(0, hi, _CHUNK):
        chunk = slice(start, min(start + _CHUNK, hi))
        parent[chunk] = map(parent.__getitem__, parent[chunk])


def _blocks(rules, length: int):
    """Pairs of slices that line up every rule application on words of this length."""
    for src, s, dst, d in rules:
        for q in range(length - s + 1):
            p = length - s - q
            x = _offset(length) + (src << q)
            y = _offset(length - s + d) + (dst << q)
            if p <= q:       # few prefixes: one contiguous block per prefix
                for prefix in range(1 << p):
                    x0, y0 = x + (prefix << (s + q)), y + (prefix << (d + q))
                    yield slice(x0, x0 + (1 << q)), slice(y0, y0 + (1 << q))
            else:            # few suffixes: one strided block per suffix
                for suffix in range(1 << q):
                    yield (slice(x + suffix, x + (1 << (p + s + q)), 1 << (s + q)),
                           slice(y + suffix, y + (1 << (p + d + q)), 1 << (d + q)))


def _runs(word: str) -> list[tuple[str, int]]:
    """A word's maximal runs, read off its letters."""
    return [(letter, len(list(group))) for letter, group in itertools.groupby(word)]


def _equal_pairs(keys) -> int:
    return sum(k * (k - 1) // 2 for k in Counter(keys).values())


def _split_pairs(vocab: list[str], joined: list, told: list) -> list[tuple[str, str]]:
    """Word pairs equal under joined but not under told, in combinations order."""
    groups: dict[object, list[int]] = {}
    for n, key in enumerate(joined):
        groups.setdefault(key, []).append(n)
    pairs = sorted((i, j) for group in groups.values()
                   for i, j in itertools.combinations(group, 2) if told[i] != told[j])
    return [(vocab[i], vocab[j]) for i, j in pairs]


def _spelled(count: int) -> list[str]:
    """The words numbered below count, in number order."""
    return [bin(n + 2)[3:].translate(_LETTERS) for n in range(count)]


def _offset(length: int) -> int:
    """The number of the first word of this length: all shorter words count."""
    return 2 ** length - 2


def _lenlex(w: str):
    return (len(w), w)
