import itertools
import math
import random
import re
from functools import reduce as fold

import pytest

from orthox import (
    Combinatorial,
    GroupCase,
    OrthoxError,
    Relation,
    multiply,
    reduce,
    relations_of,
)
from orthox import oracle, rewriting
from orthox.oracle import (
    MAX_VERIFY_LEN,
    VerifyReport,
    all_words,
    closure_classes,
    verify_reducer,
)
from orthox.words import walk

from conftest import COMBINATORIAL_FIVE, COMBINATORIAL_SWEEP, GROUP_CASES

FREE = Combinatorial(None, None)
BICYCLIC = Combinatorial(1, 1)


def test_all_words_count():
    assert len(all_words(7)) == 2 ** 8 - 2


def test_defining_merge_and_separation():
    table = closure_classes(FREE, 4, 8, check_cap=False)
    assert table.classes["aabb"] == table.classes["ab"]
    assert table.classes["ab"] != table.classes["ba"]
    assert table.classes["aabb"] == "ab"   # length-lex minimal representative


def test_bicyclic_inner_rewrite():
    table = closure_classes(BICYCLIC, 4, 8, check_cap=False)
    assert table.classes["abab"] == table.classes["ab"]


def test_bicyclic_class_count_matches_normal_form_count():
    # values reachable by words of length <= 7: the b^m a^n with
    # 1 <= m + n <= 7 plus the identity cell ab
    expected = sum(s + 1 for s in range(1, 8)) + 1
    table = closure_classes(BICYCLIC, 7, 11)
    assert len(set(table.classes.values())) == expected
    assert not table.cap_warning


def test_group_case_class_count():
    # order 3, both letters tracked: 3 balances x 2 rows x 2 columns,
    # each combination reachable within length 3
    table = closure_classes(GroupCase(False, False, 3), 6, 13)
    assert len(set(table.classes.values())) == 12
    assert not table.cap_warning


def test_cap_warning_flags_unfinished_completion():
    # Group case 2 of order 5 completes with rules of at most 6 letters.
    # At cap 5 one is left out, which sets the flag; at cap 8 the
    # completion finishes.
    tight = closure_classes(GroupCase(False, True, 5), 4, 5)
    assert tight.cap_warning
    wide = closure_classes(GroupCase(False, True, 5), 4, 8)
    assert not wide.cap_warning
    assert not closure_classes(GroupCase(False, True, 5), 4, 5, check_cap=False).cap_warning


def test_monotone_completeness():
    small = closure_classes(FREE, 6, 8, check_cap=False)
    large = closure_classes(FREE, 6, 11, check_cap=False)
    vocab = all_words(6)
    for i, w1 in enumerate(vocab):
        for w2 in vocab[i + 1:]:
            if small.classes[w1] == small.classes[w2]:
                assert large.classes[w1] == large.classes[w2]


@pytest.mark.parametrize("family", [Combinatorial(3, 2), GroupCase(True, False, 3)], ids=str)
def test_soundness_every_class_respects_reducer(family):
    table = closure_classes(family, 6, 10, check_cap=False)
    assert len(table.classes) == 2 ** 7 - 2
    for word, rep in table.classes.items():
        assert reduce(word, family) == reduce(rep, family), word


def test_determinism():
    one = closure_classes(FREE, 5, 9, check_cap=False)
    two = closure_classes(FREE, 5, 9, check_cap=False)
    assert one.classes == two.classes


def test_default_cap(monkeypatch):
    # With no cap the completion may adopt rules of any length.
    seen = []
    complete = rewriting.complete

    def spy(relations, max_lhs):
        seen.append(max_lhs)
        return complete(relations, max_lhs)

    monkeypatch.setattr(rewriting, "complete", spy)
    table = closure_classes(FREE, 5, check_cap=False)
    assert seen == [math.inf]
    assert table.classes == closure_classes(FREE, 5, 9, check_cap=False).classes


def test_parameter_validation():
    with pytest.raises(OrthoxError):
        closure_classes(FREE, 0, 4)
    with pytest.raises(OrthoxError):
        closure_classes(FREE, 5, 4)


def test_range_errors_name_the_bound():
    with pytest.raises(OrthoxError, match=re.escape("max_len must be >= 1, got 0")):
        closure_classes(FREE, 0)
    with pytest.raises(OrthoxError, match=re.escape("max_len must be <= cap, got 5 > 4")):
        closure_classes(FREE, 5, 4)
    with pytest.raises(OrthoxError, match=re.escape("max_len must be <= 10, got 12")):
        closure_classes(FREE, 12)
    with pytest.raises(OrthoxError, match=re.escape("--max-len must be >= 1, got 0")):
        verify_reducer(FREE, 0, names=("--max-len", "--cap"))


def test_verify_report_structure():
    report = verify_reducer(Combinatorial(3, None), 5, 9)
    assert report.reducer_splits_closure == []
    assert report.closure_splits_reducer == []
    assert report.agreements == 62 * 61 // 2
    payload = report.to_json()
    assert payload == {"agreements": report.agreements, "mismatches": [],
                       "cap_warning": False}


def test_custom_relations_presentation():
    # a, b mutually inverse with both absorptions: the classic bicyclic axioms
    rels = [Relation("aba", "a"), Relation("bab", "b"),
            Relation("aab", "a"), Relation("abb", "b")]
    classes, _ = _closure(rels, 4, 8)
    assert classes["aabb"] == classes["ab"]
    assert classes["abab"] == classes["ab"]
    assert classes["ab"] != classes["ba"]


# -- references: the bounded closure, built without the completion
#
# Two words are joined when one defining relation, applied either way at
# one position, turns one into the other and neither is longer than the
# cap; the classes are the connected components.  Every rule of the
# completion is a consequence of the relations, so its classes are sound,
# and when it finishes they are the semigroup's equality, which no cap's
# closure can split.

def _reference_saturate(rules, cap):
    """Union-find over every word <= cap, each relation tried both ways."""
    parent = {}

    def find(w):
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    words = all_words(cap)
    for w in words:
        parent[w] = w
    oriented = []
    for lhs, rhs in rules:
        oriented.append((lhs, rhs))
        if lhs != rhs:
            oriented.append((rhs, lhs))
    for w in words:
        for src, dst in oriented:
            if len(w) - len(src) + len(dst) > cap:
                continue
            pos = w.find(src)
            while pos != -1:
                result = w[:pos] + dst + w[pos + len(src):]
                ra, rb = find(w), find(result)
                if ra != rb:
                    parent[rb] = ra
                pos = w.find(src, pos + 1)
    return {w: find(w) for w in words}


def _reference_restrict(roots, max_len):
    members = {}
    for w, root in roots.items():
        if len(w) <= max_len:
            members.setdefault(root, []).append(w)
    reps = {root: min(ws, key=lambda w: (len(w), w)) for root, ws in members.items()}
    return {w: reps[root] for w, root in roots.items() if len(w) <= max_len}


def reference_closure(rels, max_len, cap, check_cap):
    """(classes, cap_warning): saturate at cap, and again at cap + 2 for the flag."""
    rules = [(r.lhs, r.rhs) for r in rels]
    classes = _reference_restrict(_reference_saturate(rules, cap), max_len)
    warning = False
    if check_cap:
        wider = _reference_restrict(_reference_saturate(rules, cap + 2), max_len)
        warning = wider != classes
    return classes, warning


# -- the per-edge integer sweep, a second reference
#
# A word w of length L over a = 0, b = 1 is numbered 2 ** L - 2 + bits(w),
# so numeric order is length-lex order.  A rule applied after a prefix of
# fixed length (or before a suffix of fixed length) joins two arithmetic
# progressions of word numbers.

def _edge_ranges(rules, length):
    """Pairs of ranges that zip to every rule application on this length."""
    off = lambda length: 2 ** length - 2
    for src, s, dst, d in rules:
        for q in range(length - s + 1):
            p = length - s - q
            x = off(length) + (src << q)
            y = off(length - s + d) + (dst << q)
            if p <= q:
                for prefix in range(1 << p):
                    x0, y0 = x + (prefix << (s + q)), y + (prefix << (d + q))
                    yield range(x0, x0 + (1 << q)), range(y0, y0 + (1 << q))
            else:
                for suffix in range(1 << q):
                    yield (range(x + suffix, x + (1 << (p + s + q)), 1 << (s + q)),
                           range(y + suffix, y + (1 << (p + d + q)), 1 << (d + q)))


def per_edge_partitions(rels, max_len, caps):
    """{cap: classes} of the closure of the words up to max_len at each cap."""
    oriented = [(r.lhs, r.rhs) if len(r.lhs) >= len(r.rhs) else (r.rhs, r.lhs)
                for r in rels if r.lhs != r.rhs]
    bits = str.maketrans("ab", "01")
    rules = [(int(src.translate(bits), 2), len(src), int(dst.translate(bits), 2), len(dst))
             for src, dst in oriented]
    parent = list(range(2 ** (max(caps) + 1) - 2))
    words = all_words(max_len)
    out = {}
    for length in range(1, max(caps) + 1):
        # Two path-halving finds per edge; the least number stays the root.
        for xs, ys in _edge_ranges(rules, length):
            for x, y in zip(xs, ys):
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
        if length in caps:
            roots = []                 # every parent is smaller than its child
            for n in range(len(words)):
                roots.append(n if parent[n] == n else roots[parent[n]])
            out[length] = {words[n]: words[root] for n, root in enumerate(roots)}
    return out


def per_edge_closure(rels, max_len, cap, check_cap):
    """(classes, cap_warning): the closure at cap, and again at cap + 2 for the flag."""
    parts = per_edge_partitions(rels, max_len, (cap, cap + 2) if check_cap else (cap,))
    return parts[cap], check_cap and parts[cap + 2] != parts[cap]


def test_references_agree():
    # Group case 1 of order 3 leaves caps up to 8 unconverged at max_len 4.
    rels = relations_of(GroupCase(False, False, 3))
    for cap in (4, 5, 8, 9):
        assert per_edge_closure(rels, 4, cap, True) == reference_closure(rels, 4, cap, True)
    assert per_edge_closure(rels, 4, 8, True)[1] and not per_edge_closure(rels, 4, 9, True)[1]


FREE_AXIOMS = [Relation("aba", "a"), Relation("bab", "b"), Relation("aabb", "ab")]
SLOTS = [(3, 3), (2, 4), (3, 6), (4, 8), (5, 9)]


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + GROUP_CASES, ids=str)
def test_sweep_matches_two_saturation_reference(family):
    # The per-edge sweep, which the completion is checked against, gives the
    # classes and the flag of the closure saturated twice.
    rels = relations_of(family)
    warnings = []
    for max_len, cap in SLOTS:
        for check_cap in (False, True):
            expected = reference_closure(rels, max_len, cap, check_cap)
            assert per_edge_closure(rels, max_len, cap, check_cap) == expected, \
                (max_len, cap, check_cap)
            warnings.append(expected[1])
    # Orders 3 and 5 leave some of these caps unconverged, so the flag is
    # compared where it fires, not only where it stays false.
    if isinstance(family, GroupCase) and family.order in (3, 5):
        assert any(warnings)


# -- the completion's classes against the references

# Combinatorial(n, m) for n, m in {1, 2, 3, inf} and the 20 group cases.
FAMILIES = [Combinatorial(n, m) for n in (1, 2, 3, None)
            for m in (1, 2, 3, None)] + GROUP_CASES
TOP_LEN, TOP_CAP = 6, 12


def _finer(one, other):
    """Whether partition one (word -> representative) splits a class of other."""
    return any(one[word] != one[rep] for word, rep in other.items())


def _restricted(classes, max_len):
    return {w: rep for w, rep in classes.items() if len(w) <= max_len}


def _finished(rels, cap):
    return rewriting.complete([(r.lhs, r.rhs) for r in rels], cap)[1]


def _closure(rels, max_len, cap):
    """(classes, finished): the completion's normal forms of the words up to max_len."""
    rules, finished = rewriting.complete([(r.lhs, r.rhs) for r in rels], cap)
    return dict(zip(all_words(max_len), rewriting.normal_forms(rules, max_len))), finished


def assert_contract(rels, max_len, cap, ref, wider=None, exact=None):
    """The completion's classes against the reference classes at cap.

    wider is the reference at a larger cap and exact the semigroup's
    classes, where known.  Returns the classes and whether the completion
    finished.
    """
    classes, finished = _closure(rels, max_len, cap)
    assert not _finer(classes, ref), "finer than the reference"
    if exact is not None:
        assert not _finer(exact, classes), "a class the reducer splits"
        if ref == exact:
            assert classes == ref
    if finished:
        if exact is not None:
            assert classes == exact
        if wider is not None:
            assert not _finer(classes, wider)
    return classes, finished


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_closure_against_the_references(family):
    rels = relations_of(family)
    refs = per_edge_partitions(rels, TOP_LEN, range(1, TOP_CAP + 1))
    least = {}
    exact = {w: least.setdefault(reduce(w, family), w) for w in all_words(TOP_LEN)}
    finished = set()
    for max_len in range(1, TOP_LEN + 1):
        for cap in range(max_len, TOP_CAP + 1):
            classes, done = assert_contract(
                relations_of(family, max_len), max_len, cap, _restricted(refs[cap], max_len),
                exact=_restricted(exact, max_len))
            for check_cap in (False, True):
                table = closure_classes(family, max_len, cap, check_cap)
                assert (table.classes, table.cap_warning) == (classes, check_cap and not done)
            finished.add(done)
    # A cap below the longest relation leaves a relation out.
    assert finished == {False, True}


def test_closure_against_the_reference_on_random_presentations():
    rng = random.Random(15)
    finished = []
    for _ in range(600):
        rels = [Relation(*("".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                           for _ in range(2)))
                for _ in range(rng.randint(1, 4))]
        max_len = rng.randint(1, 5)
        cap = rng.randint(max_len, 9)
        parts = per_edge_partitions(rels, max_len, (cap, cap + 2))
        finished.append(assert_contract(rels, max_len, cap, parts[cap], wider=parts[cap + 2])[1])
    assert 100 < sum(finished) < 500


# The verify workload's (max_len, cap) slots.
VERIFY_SLOTS = [(5, 9), (5, 10), (6, 10), (5, 11), (6, 11)]
WORKLOAD_CASES = [
    *[(family, max_len, cap) for family in (Combinatorial(3, 2), GroupCase(True, False, 2))
      for max_len, cap in VERIFY_SLOTS],
    (GroupCase(False, False, 5), 6, 10),       # the bounded closure splits here
    ("ab=ba", 5, 9),
    (Combinatorial(2, 3), 10, 15),
]


@pytest.mark.parametrize("family, max_len, cap", WORKLOAD_CASES, ids=str)
def test_closure_matches_per_edge_sweep_at_workload_slots(family, max_len, cap):
    # Where the bounded closure at cap is converged, the completion's
    # classes are the same, with no flag in either mode.  Group case 1 of
    # order 5 needs a wider cap than 10 to converge; the completion is
    # exact there and does not warn.
    if family == "ab=ba":
        rels = FREE_AXIOMS + [Relation("ab", "ba")]
        classes, finished = _closure(rels, max_len, cap)
        assert finished
        assert per_edge_closure(rels, max_len, cap, True) == (classes, False)
        return
    rels = relations_of(family)
    tables = [closure_classes(family, max_len, cap, c) for c in (False, True)]
    for check_cap, table in zip((False, True), tables):
        classes, warning = per_edge_closure(rels, max_len, cap, check_cap)
        if family == GroupCase(False, False, 5):
            assert warning == check_cap and _finer(classes, table.classes)
            least = {}
            assert table.classes == {w: least.setdefault(reduce(w, family), w)
                                     for w in all_words(max_len)}
            assert not table.cap_warning
        else:
            assert (table.classes, table.cap_warning) == (classes, warning), check_cap


@pytest.mark.parametrize("rels", [
    # every relation written short side first
    [Relation("a", "aba"), Relation("b", "bab"), Relation("ab", "aabb")],
    # short side first and growing by two letters per step
    [Relation("a", "aba"), Relation("b", "bab"), Relation("ab", "aabb"), Relation("a", "aaa")],
    # an equal-length relation
    FREE_AXIOMS + [Relation("ab", "ba")],
    FREE_AXIOMS + [Relation("ba", "ab")],
    # a relation with equal sides joins nothing
    FREE_AXIOMS + [Relation("abab", "abab")],
    [Relation("ab", "ab")],
    # short side first, with a relation between words of one length
    [Relation("a", "aba"), Relation("ab", "ba")],
], ids=["short-first", "short-first-order-2", "ab=ba", "ba=ab", "lhs=rhs", "only-lhs=rhs",
        "short-first-ab=ba"])
def test_closure_against_the_reference_on_user_presentations(rels):
    for max_len, cap in SLOTS:
        ref, _ = reference_closure(rels, max_len, cap, False)
        wider, _ = reference_closure(rels, max_len, cap + 2, False)
        assert_contract(rels, max_len, cap, ref, wider=wider)


def test_a_completion_that_runs_forever_gives_sound_classes():
    # Under shortlex aba = bab completes to infinitely many rules, so no cap
    # finishes.  The relation keeps lengths, so the closure at cap max_len
    # is already the semigroup's equality, and the classes match it.
    rels = [Relation("aba", "bab")]
    for max_len, cap in [(3, 5), (5, 9), (6, 12), (MAX_VERIFY_LEN, 15)]:
        assert not _finished(rels, cap)
        exact, _ = per_edge_closure(rels, max_len, max_len, False)
        assert _closure(rels, max_len, cap)[0] == exact


def test_two_rules_with_one_lhs():
    # b = ba and a = ba orient to ba -> b and ba -> a; their critical pair
    # is ba itself, b = a, which a completion keyed by lhs would miss.
    rels = [Relation("b", "ba"), Relation("a", "ba")]
    for max_len, cap in [(1, 2), (2, 3), (3, 5), (4, 8), (5, 9)]:
        classes, finished = _closure(rels, max_len, cap)
        assert finished
        assert per_edge_closure(rels, max_len, cap, True) == (classes, False), (max_len, cap)
        assert set(classes.values()) == {"a"}


def test_rule_limit_leaves_sound_classes(monkeypatch):
    family = GroupCase(False, False, 2)
    rels = relations_of(family, 5)
    assert _finished(rels, 10)
    monkeypatch.setattr(rewriting, "MAX_RULES", len(rels) + 1)
    assert not _finished(rels, 10)
    report = verify_reducer(family, 5, 10)
    assert not report.reducer_splits_closure
    assert report.closure_splits_reducer     # not proved without the rules past the limit
    assert report.cap_warning                # and the flag says so


def test_an_order_relation_longer_than_any_cap_is_completed():
    # a^18 = a joins a^9 and b^9; a cap of 15 leaves it out and says so.
    report = verify_reducer(GroupCase(True, True, 17), 10)
    assert not report.closure_splits_reducer and not report.reducer_splits_closure
    assert not report.cap_warning
    capped = verify_reducer(GroupCase(True, True, 17), 10, 15)
    assert capped.closure_splits_reducer and capped.cap_warning


def test_pinned_reports():
    # Group case 1 of order 5 completes with rules of at most 6 letters,
    # so it is exact at (6, 8).
    report = verify_reducer(GroupCase(False, False, 5), 6, 8)
    assert report.closure_splits_reducer == [] and not report.cap_warning
    # Group case 2 of order 5 needs a 6-letter rule: at (4, 5) it is not
    # exact, and says so.
    report = verify_reducer(GroupCase(False, True, 5), 4, 5)
    assert len(report.closure_splits_reducer) == 4 and report.cap_warning
    assert not report.reducer_splits_closure


def _no_completion(monkeypatch):
    def refuse(relations, max_lhs):
        raise AssertionError(f"completed {len(relations)} relations up to {max_lhs} letters")
    monkeypatch.setattr(rewriting, "complete", refuse)


def test_cap_limit_rejected_before_enumeration(monkeypatch):
    _no_completion(monkeypatch)
    for cap in (4, 0):
        with pytest.raises(OrthoxError, match=f"max_len must be <= cap, got 5 > {cap}"):
            closure_classes(FREE, 5, cap)
        with pytest.raises(OrthoxError, match=f"max_len must be <= cap, got 5 > {cap}"):
            verify_reducer(FREE, 5, cap)


def test_verify_length_limit_rejected_before_enumeration(monkeypatch):
    _no_completion(monkeypatch)
    with pytest.raises(OrthoxError, match=f"max_len must be <= {MAX_VERIFY_LEN}"):
        verify_reducer(FREE, MAX_VERIFY_LEN + 1, 15)
    with pytest.raises(OrthoxError, match=f"max_len must be <= {MAX_VERIFY_LEN}"):
        verify_reducer(FREE, MAX_VERIFY_LEN + 1)


def test_closure_length_limit_rejected_before_completion(monkeypatch):
    _no_completion(monkeypatch)
    with pytest.raises(OrthoxError, match=f"max_len must be <= {MAX_VERIFY_LEN}"):
        closure_classes(FREE, MAX_VERIFY_LEN + 1)


# -- reference: verify_reducer walking every pair, as it was before counting

def _reference_verify(family, max_len, cap, reducer=reduce):
    table = closure_classes(family, max_len, cap)
    vocab = sorted(table.classes, key=lambda w: (len(w), w))
    canon = {w: reducer(w, family) for w in vocab}
    agreements = 0
    reducer_splits, closure_splits = [], []
    for w1, w2 in itertools.combinations(vocab, 2):
        closure_eq = table.classes[w1] == table.classes[w2]
        reducer_eq = canon[w1] == canon[w2]
        if closure_eq == reducer_eq:
            agreements += 1
        elif closure_eq:
            reducer_splits.append((w1, w2))
        else:
            closure_splits.append((w1, w2))
    return VerifyReport(agreements, reducer_splits, closure_splits, table.cap_warning)


@pytest.mark.parametrize("family, max_len, cap", [
    (Combinatorial(3, 2), 5, 9),
    (GroupCase(False, True, 5), 4, 5),     # cap too small: closure splits
    (GroupCase(True, True, 1), 2, 2),      # a = b, and the cap splits them
    (GroupCase(True, True, 2), 2, 2),
], ids=str)
def test_counting_compare_matches_pairwise_walk(family, max_len, cap):
    report = verify_reducer(family, max_len, cap)
    assert report == _reference_verify(family, max_len, cap)
    assert bool(report.closure_splits_reducer) == isinstance(family, GroupCase)


def test_counting_compare_matches_pairwise_walk_on_a_faulty_reducer(monkeypatch):
    # The same fault, a a -> a, planted in the multiply verify_reducer's
    # walk calls and in the letter-by-letter products the pairwise walk
    # reduces with.
    a = reduce("a", FREE)

    def faulty(x, y):
        return a if x == y == a else multiply(x, y)

    monkeypatch.setattr(oracle, "multiply", faulty)
    report = verify_reducer(FREE, 5, 9)
    assert report.reducer_splits_closure and report.closure_splits_reducer
    assert report == _reference_verify(
        FREE, 5, 9, lambda word, family: fold(faulty, [reduce(c, family) for c in word]))


# -- the reducer's answers, read off the generators' Cayley graph

@pytest.mark.parametrize("family", COMBINATORIAL_SWEEP + GROUP_CASES, ids=str)
def test_cayley_walk_equals_reduce(family):
    # GROUP_CASES holds GroupCase(True, True, d) at d = 1 and 2, where a = b.
    ids, answers = walk([reduce(x, family) for x in "ab"], multiply, MAX_VERIFY_LEN)
    assert len(set(answers)) == len(answers)
    assert [answers[n] for n in ids] == [reduce(w, family) for w in all_words(MAX_VERIFY_LEN)]


@pytest.mark.parametrize("family", COMBINATORIAL_SWEEP + GROUP_CASES, ids=str)
def test_cayley_walk_multiplies_once_per_edge(family):
    calls = []
    ids, answers = walk([reduce(x, family) for x in "ab"],
                        lambda x, y: calls.append(x) or multiply(x, y), MAX_VERIFY_LEN)
    assert len(ids) == len(all_words(MAX_VERIFY_LEN))
    # Each answer has two edges out, so at most 2 x answers multiplies,
    # far fewer than one per word.
    assert len(calls) <= 2 * len(answers) < len(ids) - 2


# -- bound relations too long to act on the closure

@pytest.mark.parametrize("huge, infinite", [
    (GroupCase(False, False, 10 ** 12), GroupCase(False, False, None)),
    (GroupCase(True, True, 10 ** 12), GroupCase(True, True, None)),
    (Combinatorial(10 ** 12, 2), Combinatorial(None, 2)),
    (Combinatorial(3, 10 ** 12), Combinatorial(3, None)),
], ids=str)
def test_huge_bound_verifies_like_infinite(huge, infinite):
    for max_len, cap in [(4, 8), (6, 10), (MAX_VERIFY_LEN, 15), (MAX_VERIFY_LEN, None)]:
        assert verify_reducer(huge, max_len, cap) == verify_reducer(infinite, max_len, cap)


@pytest.mark.parametrize("family", [GroupCase(True, False, 2), GroupCase(True, True, 2)],
                         ids=str)
def test_a_relation_one_past_the_cap_is_kept(family):
    # a^3 = a is longer than max_len and the cap, yet it is spelled.  The
    # reference's saturation at cap + 2 needs it to see that the cap
    # changes the classes; the completion, cut at the cap, flags it too.
    rels = relations_of(family)
    expected = per_edge_closure(rels, 2, 2, True)
    assert expected[1] and not per_edge_closure(rels[:-1], 2, 2, True)[1]
    table = closure_classes(family, 2, 2)
    assert (table.classes, table.cap_warning) == expected
