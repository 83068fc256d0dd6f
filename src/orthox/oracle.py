"""Independent validator: word classes read off a shortlex completion.

The oracle never consults the reduction engine.  closure_classes spells
the family's relations that can act on words of length <= max_len
(family.relations_of), rewriting.complete runs a shortlex Knuth-Bendix
completion of them, and those words are classed by their normal forms.
Every rule is a consequence of the relations, so two words in one class
are provably equal in the presented semigroup.  A rewrite makes a word
length-lex smaller and never longer, so a class's normal form is its
length-lex least word and no longer than max_len.  When the completion
finished, its rules are complete and the classes are exactly the
semigroup's equality on those words.  A cap leaves out every rule whose
lhs is longer than cap letters; the cap warning is set whenever a rule
was left out, by the cap or by rewriting.MAX_RULES, and then two words in
different classes are merely "not proved equal".

verify_reducer reads the reducer's answers off the right Cayley graph of
the generators: reduce(w x) = multiply(reduce(w), reduce(x)), so each
word's answer is its one-letter-shorter prefix's answer times its last
letter.  Each distinct answer is numbered once, and the graph maps
(answer, letter) to the answer of the product; multiply runs only when
the graph gains an edge, at most twice per distinct answer.  It compares
closure equality with reducer equality over all pairs of words up to
max_len by counting: the pairs equal under both, under the closure and
under the reducer are sums of C(size, 2) over the joint classes, the
closure classes and the reducer classes.  Only when those counts
disagree does it list the mismatched pairs, walking the pairs within
each class, in itertools.combinations order.

Listing mismatches can walk every pair of words up to max_len, so lengths
stop at MAX_VERIFY_LEN, checked before anything is computed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import OrthoxError
from .family import FamilySpec, relations_of
from . import rewriting
from .normal_form import Element, multiply, reduce

MAX_VERIFY_LEN = 10    # 2,046 words; listing mismatches may walk 2.1 million pairs


@dataclass
class ClosureTable:
    classes: dict[str, str]           # word -> length-lex minimal representative,
                                      # words in length-lex order
    cap_warning: bool = False


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
    """Closure classes of all words of length <= max_len for the family.

    cap limits the lhs of the rules the completion adopts; None sets no limit.
    """
    _check_range(max_len, cap)
    pairs = [(r.lhs, r.rhs) for r in relations_of(family, max_len)]
    rules, finished = rewriting.complete(pairs, math.inf if cap is None else cap)
    forms = rewriting.normal_forms(rules, max_len)
    return ClosureTable(dict(zip(all_words(max_len), forms)),
                        check_cap and not finished)


def verify_reducer(family: FamilySpec, max_len: int, cap: int | None = None,
                   names: tuple[str, str] = ("max_len", "cap")) -> VerifyReport:
    """Compare closure equality with reduction-engine equality on every word pair.

    names are what a range error blames for max_len and cap, such as the
    options they came from.
    """
    _check_range(max_len, cap, *names)
    table = closure_classes(family, max_len, cap)
    vocab = list(table.classes)
    reps = list(table.classes.values())
    canon, _ = _cayley_walk(family, max_len)
    both = _equal_pairs(zip(reps, canon))
    reducer_splits = _split_pairs(vocab, reps, canon) if _equal_pairs(reps) > both else []
    closure_splits = _split_pairs(vocab, canon, reps) if _equal_pairs(canon) > both else []
    agreements = (len(vocab) * (len(vocab) - 1) // 2
                  - len(reducer_splits) - len(closure_splits))
    return VerifyReport(agreements, reducer_splits, closure_splits,
                        table.cap_warning)


def _cayley_walk(family: FamilySpec, max_len: int) -> tuple[list[int], list[Element]]:
    """The answer id of every word up to max_len in length-lex order, and the answers.

    Word n is word n // 2 - 1 followed by letter n & 1, as in
    rewriting.normal_forms, and words 0 and 1 are the letters a and b
    themselves, which may be one element and then share an id.
    """
    ids: dict[Element, int] = {}
    answers: list[Element] = []                 # by id
    graph: dict[tuple[int, int], int] = {}      # (answer id, letter) -> answer id

    def number(x: Element) -> int:
        if x not in ids:
            ids[x] = len(answers)
            answers.append(x)
        return ids[x]

    out = [number(reduce(letter, family)) for letter in "ab"]
    for n in range(2, 2 ** (max_len + 1) - 2):
        edge = (out[n // 2 - 1], n & 1)
        if edge not in graph:
            graph[edge] = number(multiply(answers[edge[0]], answers[out[edge[1]]]))
        out.append(graph[edge])
    return out, answers


def _check_range(max_len: int, cap: int | None, max_len_name: str = "max_len",
                 cap_name: str = "cap") -> None:
    """OrthoxError naming the bound out of range."""
    if max_len < 1:
        raise OrthoxError(f"{max_len_name} must be >= 1, got {max_len}")
    if max_len > MAX_VERIFY_LEN:
        raise OrthoxError(f"{max_len_name} must be <= {MAX_VERIFY_LEN}, got {max_len}")
    if cap is not None and max_len > cap:
        raise OrthoxError(f"{max_len_name} must be <= {cap_name}, got {max_len} > {cap}")


def all_words(max_len: int) -> list[str]:
    """Every word of length 1 to max_len, in length-lex order."""
    out = []
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product("ab", repeat=length))
    return out


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
