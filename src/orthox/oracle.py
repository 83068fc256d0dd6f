"""Brute-force validator: bounded bidirectional closure over raw words.

The closure never consults the reduction engine.  Two words are joined
when one defining relation, applied in either direction at one position,
turns one into the other and neither is longer than the length cap; the
classes are the connected components of that graph, kept in a
union-find.  Two words in one class are provably equal in the presented
semigroup; two words in different classes are merely "not known equal"
at this cap.

Each relation is oriented once, from its longer side to its shorter one
(kept as written on a length tie; a relation with equal sides is
dropped).  Every edge then joins a word to a rewrite no longer than it,
so one sweep over the words in length-lex order, rewriting each word
with every oriented relation at every position, finds each edge exactly
once, and after the words of length <= cap have been swept the
union-find holds the closure at the cap.

The cap warning is a saturation heuristic: the same sweep goes on over
lengths cap + 1 and cap + 2, and the flag is set when that changed the
partition of the words of length <= max_len, meaning the stated cap had
not converged.

With the cap check the closure holds about 2 ** (cap + 3) words, so
caps stop at MAX_CAP; verify_reducer compares every pair of words up to
max_len, so its lengths stop at MAX_VERIFY_LEN.  Both limits are checked
before anything is enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import OrthoxError
from .family import FamilySpec, Relation, relations_of
from .normal_form import reduce

MergeStep = tuple[str, str, str, int, str]  # word, lhs, rhs, position, result

# At both limits `orthox verify` takes about 4.5 s and 85 MB.
MAX_CAP = 15           # 2 ** 18 words with the cap check
MAX_VERIFY_LEN = 10    # 2,046 words, 2.1 million pairs


@dataclass
class ClosureTable:
    max_len: int
    cap: int
    classes: dict[str, str]           # word -> length-lex minimal representative
    merged_via: list[MergeStep] = field(repr=False, default_factory=list)
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
    return closure_from_relations(relations_of(family), max_len, cap, check_cap)


def closure_from_relations(rels: list[Relation], max_len: int,
                           cap: int | None = None,
                           check_cap: bool = True) -> ClosureTable:
    """Same as closure_classes but over an explicit relation list.

    merged_via lists the merges made while sweeping the words of length
    <= cap, each one application of a relation, longer side first.
    """
    if cap is None:
        cap = max_len + 4
    if not 1 <= max_len <= cap:
        raise OrthoxError(f"need 1 <= max_len <= cap, got {max_len}, {cap}")
    if cap > MAX_CAP:
        raise OrthoxError(f"cap must be <= {MAX_CAP}, got {cap}")
    rules = [(r.lhs, r.rhs) if len(r.lhs) >= len(r.rhs) else (r.rhs, r.lhs)
             for r in rels if r.lhs != r.rhs]
    words = all_words(cap + 2 if check_cap else cap)
    parent = {w: w for w in words}

    def find(w: str) -> str:
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    def join(sweep: list[str], merges: list[MergeStep]) -> None:
        # Every root is kept the length-lex least word of its class, so
        # find(w) is the class representative.
        for w in sweep:
            root = find(w)
            for src, dst in rules:
                pos = w.find(src)
                while pos != -1:
                    result = w[:pos] + dst + w[pos + len(src):]
                    other = find(result)
                    if other != root:
                        if _lenlex(other) < _lenlex(root):
                            parent[root], root = other, other
                        else:
                            parent[other] = root
                        merges.append((w, src, dst, pos, result))
                    pos = w.find(src, pos + 1)

    merges: list[MergeStep] = []
    in_cap = 2 ** (cap + 1) - 2         # all_words lists lengths in order
    join(words[:in_cap], merges)
    classes = {w: find(w) for w in words[:2 ** (max_len + 1) - 2]}
    warning = False
    if check_cap:
        join(words[in_cap:], [])
        warning = any(find(w) != rep for w, rep in classes.items())
    return ClosureTable(max_len, cap, classes, merges, warning)


def verify_reducer(family: FamilySpec, max_len: int,
                   cap: int | None = None) -> VerifyReport:
    """Compare closure equality with reduction-engine equality pairwise."""
    if max_len > MAX_VERIFY_LEN:
        raise OrthoxError(f"max_len must be <= {MAX_VERIFY_LEN}, got {max_len}")
    table = closure_classes(family, max_len, cap)
    vocab = sorted(table.classes, key=_lenlex)
    canon = {w: reduce(w, family) for w in vocab}
    agreements = 0
    reducer_splits: list[tuple[str, str]] = []
    closure_splits: list[tuple[str, str]] = []
    for w1, w2 in itertools.combinations(vocab, 2):
        closure_eq = table.classes[w1] == table.classes[w2]
        reducer_eq = canon[w1] == canon[w2]
        if closure_eq == reducer_eq:
            agreements += 1
        elif closure_eq:
            reducer_splits.append((w1, w2))
        else:
            closure_splits.append((w1, w2))
    return VerifyReport(agreements, reducer_splits, closure_splits,
                        table.cap_warning)


def all_words(max_len: int) -> list[str]:
    out = []
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product("ab", repeat=length))
    return out


def _lenlex(w: str):
    return (len(w), w)
