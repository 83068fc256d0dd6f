import itertools
import random
import re

import pytest

from orthox import Combinatorial, GroupCase, OrthoxError, Relation, reduce, relations_of
from orthox import oracle, rewriting
from orthox.oracle import (
    MAX_CAP,
    MAX_VERIFY_LEN,
    VerifyReport,
    all_words,
    closure_classes,
    closure_from_relations,
    verify_reducer,
)

from conftest import COMBINATORIAL_FIVE, GROUP_CASES

FREE = Combinatorial(None, None)
BICYCLIC = Combinatorial(1, 1)


def test_all_words_count():
    assert len(all_words(7)) == 2 ** 8 - 2


def test_defining_merge_and_separation():
    table = closure_classes(FREE, 4, 8, check_cap=False)
    assert table.same_class("aabb", "ab")
    assert not table.same_class("ab", "ba")
    assert table.classes["aabb"] == "ab"   # length-lex minimal representative


def test_bicyclic_inner_rewrite():
    table = closure_classes(BICYCLIC, 4, 8, check_cap=False)
    assert table.same_class("abab", "ab")


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


def test_cap_warning_flags_unconverged_cap():
    tight = closure_classes(GroupCase(False, False, 5), 6, 10)
    assert tight.cap_warning
    wide = closure_classes(GroupCase(False, False, 5), 6, 13)
    assert not wide.cap_warning


def test_monotone_completeness():
    small = closure_classes(FREE, 6, 8, check_cap=False)
    large = closure_classes(FREE, 6, 11, check_cap=False)
    vocab = all_words(6)
    for i, w1 in enumerate(vocab):
        for w2 in vocab[i + 1:]:
            if small.same_class(w1, w2):
                assert large.same_class(w1, w2)


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
    assert one.groups() == two.groups()


def test_default_cap():
    table = closure_classes(FREE, 5, check_cap=False)
    assert table.cap == 9


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
    # A defaulted cap says so.
    with pytest.raises(OrthoxError,
                       match=re.escape("cap (default max_len + 4) must be <= 15, got 16")):
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
    table = closure_from_relations(rels, 4, 8, check_cap=False)
    assert table.same_class("aabb", "ab")
    assert table.same_class("abab", "ab")
    assert not table.same_class("ab", "ba")


# -- reference: the closure saturated twice, as it was before the single sweep

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


SWEEP_SLOTS = [(3, 3), (2, 4), (3, 6), (4, 8), (5, 9)]


def assert_matches_reference(rels, slots=SWEEP_SLOTS):
    warnings = []
    for max_len, cap in slots:
        for check_cap in (False, True):
            table = closure_from_relations(rels, max_len, cap, check_cap)
            expected = reference_closure(rels, max_len, cap, check_cap)
            assert (table.classes, table.cap_warning) == expected, (max_len, cap, check_cap)
            warnings.append(table.cap_warning)
    return warnings


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + GROUP_CASES, ids=str)
def test_sweep_matches_two_saturation_reference(family):
    warnings = assert_matches_reference(relations_of(family))
    # Orders 3 and 5 leave some of these caps unconverged, so the flag is
    # compared where it fires, not only where it stays false.  The slots
    # (3, 3) and (2, 4) are there because a re-check sweeping only to
    # cap + 1 would still get the larger ones right.
    if isinstance(family, GroupCase) and family.order in (3, 5):
        assert any(warnings)


FREE_AXIOMS = [Relation("aba", "a"), Relation("bab", "b"), Relation("aabb", "ab")]


# -- reference: the per-edge integer sweep, as it was before block unions

def _edge_ranges(rules, lengths):
    """Pairs of ranges that zip to every rule application on these lengths."""
    off = lambda length: 2 ** length - 2
    for length in lengths:
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


def per_edge_closure(rels, max_len, cap, check_cap):
    """(classes, cap_warning) from two path-halving finds per edge."""
    oriented = [(r.lhs, r.rhs) if len(r.lhs) >= len(r.rhs) else (r.rhs, r.lhs)
                for r in rels if r.lhs != r.rhs]
    bits = str.maketrans("ab", "01")
    rules = [(int(src.translate(bits), 2), len(src), int(dst.translate(bits), 2), len(dst))
             for src, dst in oriented]
    parent = list(range(2 ** (cap + 3 if check_cap else cap + 1) - 2))

    def join(lengths):
        for xs, ys in _edge_ranges(rules, lengths):
            for x, y in zip(xs, ys):
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y

    def roots():
        out = []
        for n in range(2 ** (max_len + 1) - 2):
            out.append(n if parent[n] == n else out[parent[n]])
        return out

    join(range(1, cap + 1))
    before = roots()
    words = [bin(n + 2)[3:].translate(str.maketrans("01", "ab")) for n in range(len(before))]
    classes = {words[n]: words[root] for n, root in enumerate(before)}
    warning = False
    if check_cap:
        join(range(cap + 1, cap + 3))
        warning = roots() != before
    return classes, warning


# The verify workload's (max_len, cap) slots.
VERIFY_SLOTS = [(5, 9), (5, 10), (6, 10), (5, 11), (6, 11)]
PER_EDGE_CASES = [
    *[(family, max_len, cap) for family in (Combinatorial(3, 2), GroupCase(True, False, 2))
      for max_len, cap in VERIFY_SLOTS],
    (GroupCase(False, False, 5), 6, 10),       # the only one with a cap warning
    ("ab=ba", 5, 9),
    (Combinatorial(2, 3), 10, 15),
]


@pytest.mark.parametrize("family, max_len, cap", PER_EDGE_CASES, ids=str)
def test_block_sweep_matches_per_edge_sweep(family, max_len, cap):
    rels = FREE_AXIOMS + [Relation("ab", "ba")] if family == "ab=ba" else relations_of(family)
    for check_cap in (False, True):
        table = oracle._swept_closure(rels, max_len, cap, check_cap)
        expected = per_edge_closure(rels, max_len, cap, check_cap)
        assert (table.classes, table.cap_warning) == expected, check_cap
    assert table.cap_warning == (family == GroupCase(False, False, 5))


def test_block_sweep_matches_per_edge_sweep_on_random_presentations():
    # Random relations merge classes in orders the families never do, such
    # as two merges in one length that chain one root through another.
    rng = random.Random(12)
    for _ in range(200):
        rels = [Relation(*("".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                           for _ in range(2)))
                for _ in range(rng.randint(1, 4))]
        max_len = rng.randint(2, 5)
        cap = rng.randint(max_len, 8)
        for check_cap in (False, True):
            table = oracle._swept_closure(rels, max_len, cap, check_cap)
            expected = per_edge_closure(rels, max_len, cap, check_cap)
            assert (table.classes, table.cap_warning) == expected, (rels, max_len, cap)


@pytest.mark.parametrize("rels", [
    # every relation written short side first
    [Relation("a", "aba"), Relation("b", "bab"), Relation("ab", "aabb")],
    # short side first and growing by two letters per step
    [Relation("a", "aba"), Relation("b", "bab"), Relation("ab", "aabb"), Relation("a", "aaa")],
    # an equal-length relation, kept as written
    FREE_AXIOMS + [Relation("ab", "ba")],
    FREE_AXIOMS + [Relation("ba", "ab")],
    # a relation with equal sides joins nothing
    FREE_AXIOMS + [Relation("abab", "abab")],
    [Relation("ab", "ab")],
], ids=["short-first", "short-first-order-2", "ab=ba", "ba=ab", "lhs=rhs", "only-lhs=rhs"])
def test_sweep_matches_reference_on_user_presentations(rels):
    assert_matches_reference(rels)


def test_longer_side_first_on_a_short_side_first_presentation():
    # Swept as written, a -> aba would grow words past the cap.
    assert_matches_reference([Relation("a", "aba"), Relation("ab", "ba")], [(3, 5)])


@pytest.mark.parametrize("rel", [Relation("ab", ""), Relation("", "a"),
                                 Relation("a^2", "a"), Relation("AB", "ab")],
                         ids=["empty-rhs", "empty-lhs", "caret", "upper-case"])
def test_relation_sides_must_be_words_in_a_and_b(monkeypatch, rel):
    _no_allocation(monkeypatch)
    with pytest.raises(OrthoxError, match=re.escape(f"relation {rel.lhs!r} = {rel.rhs!r}")):
        closure_from_relations(FREE_AXIOMS + [rel], 3, 5)


def _no_allocation(monkeypatch):
    def refuse(size):
        raise AssertionError(f"allocated a union-find over {size} words")
    monkeypatch.setattr(oracle, "_parents", refuse)


def test_cap_limit_rejected_before_enumeration(monkeypatch):
    _no_allocation(monkeypatch)
    for cap in (MAX_CAP + 1, 40):
        with pytest.raises(OrthoxError, match=f"cap must be <= {MAX_CAP}"):
            closure_classes(FREE, 5, cap)
        with pytest.raises(OrthoxError, match=f"cap must be <= {MAX_CAP}"):
            closure_from_relations(FREE_AXIOMS, 5, cap, check_cap=False)
    with pytest.raises(OrthoxError, match=f"cap must be <= {MAX_CAP}"):
        verify_reducer(FREE, 5, MAX_CAP + 1)


def test_verify_length_limit_rejected_before_enumeration(monkeypatch):
    _no_allocation(monkeypatch)
    with pytest.raises(OrthoxError, match=f"max_len must be <= {MAX_VERIFY_LEN}"):
        verify_reducer(FREE, MAX_VERIFY_LEN + 1, MAX_CAP)
    with pytest.raises(OrthoxError, match=f"max_len must be <= {MAX_VERIFY_LEN}"):
        verify_reducer(FREE, MAX_VERIFY_LEN + 1)


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
    (GroupCase(False, False, 5), 6, 8),    # cap too small: closure splits
], ids=str)
def test_counting_compare_matches_pairwise_walk(family, max_len, cap):
    report = verify_reducer(family, max_len, cap)
    assert report == _reference_verify(family, max_len, cap)
    assert bool(report.closure_splits_reducer) == isinstance(family, GroupCase)


def test_counting_compare_matches_pairwise_walk_on_a_faulty_reducer(monkeypatch):
    # The same fault, aa -> a, planted in the runs verify_reducer reduces
    # and in the words the pairwise walk reduces.
    real = oracle.reduce_runs
    monkeypatch.setattr(oracle, "reduce_runs",
                        lambda runs, family: real([("a", 1)] if runs == [("a", 2)] else runs,
                                                  family))
    report = verify_reducer(FREE, 5, 9)
    assert report.reducer_splits_closure and report.closure_splits_reducer
    assert report == _reference_verify(
        FREE, 5, 9, lambda word, family: reduce("a" if word == "aa" else word, family))


# -- the certified path: normal forms of a complete rewriting system

# Combinatorial(n, m) for n, m in {1, 2, 3, inf} and the 20 group cases.
CERTIFIED_FAMILIES = [Combinatorial(n, m) for n in (1, 2, 3, None)
                      for m in (1, 2, 3, None)] + GROUP_CASES


def _closure_and_branch(monkeypatch, rels, max_len, cap, check_cap):
    """(table, certified): closure_from_relations and whether it skipped the sweep."""
    swept = []
    real = oracle._swept_closure
    monkeypatch.setattr(oracle, "_swept_closure", lambda *args: swept.append(args) or real(*args))
    table = closure_from_relations(rels, max_len, cap, check_cap)
    monkeypatch.setattr(oracle, "_swept_closure", real)
    return table, not swept


def assert_matches_sweep(monkeypatch, rels, max_len, cap) -> bool:
    """closure_from_relations equals the block sweep in both modes; True if certified."""
    branches = set()
    for check_cap in (False, True):
        table, certified = _closure_and_branch(monkeypatch, rels, max_len, cap, check_cap)
        swept = oracle._swept_closure(rels, max_len, cap, check_cap)
        assert list(table.classes.items()) == list(swept.classes.items()), (max_len, cap, check_cap)
        assert table.cap_warning == swept.cap_warning, (max_len, cap, check_cap)
        branches.add(certified)
    assert len(branches) == 1, "the branch depends only on the relations, max_len and cap"
    return branches.pop()


@pytest.mark.parametrize("family", CERTIFIED_FAMILIES, ids=str)
def test_certified_closure_matches_block_sweep(monkeypatch, family):
    rels = relations_of(family)
    certified = [assert_matches_sweep(monkeypatch, rels, max_len, cap)
                 for max_len in range(1, 8) for cap in range(max_len, 13)]
    # Caps below the longest relation, or too tight to join a rule's sides,
    # fall back to the sweep; wide caps certify.
    assert any(certified) and not all(certified)


def test_certified_closure_matches_block_sweep_on_random_presentations(monkeypatch):
    rng = random.Random(15)
    certified = []
    for _ in range(600):
        rels = [Relation(*("".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                           for _ in range(2)))
                for _ in range(rng.randint(1, 4))]
        max_len = rng.randint(1, 5)
        cap = rng.randint(max_len, 9)
        certified.append(assert_matches_sweep(monkeypatch, rels, max_len, cap))
    assert 100 < sum(certified) < 500


def test_certified_closure_allocates_no_union_find(monkeypatch):
    _no_allocation(monkeypatch)
    table = closure_classes(Combinatorial(3, 2), 7, 11)
    assert table.classes["aabb"] == "ab" and not table.cap_warning
    assert len(table.classes) == 2 ** 8 - 2


def test_certificate_is_exact_per_rule(monkeypatch):
    # A rule of GroupCase(True, True, None) needs 4 letters of headroom to
    # join its sides: cap 9 is one short for max_len 6, cap 10 is enough.
    rels = relations_of(GroupCase(True, True, None))
    assert not assert_matches_sweep(monkeypatch, rels, 6, 9)
    assert assert_matches_sweep(monkeypatch, rels, 6, 10)


def test_two_rules_with_one_lhs(monkeypatch):
    # b = ba and a = ba orient to ba -> b and ba -> a; their critical pair
    # is ba itself, b = a, which a completion keyed by lhs would miss.
    rels = [Relation("b", "ba"), Relation("a", "ba")]
    branches = []
    for max_len, cap in [(1, 2), (2, 3), (3, 5), (4, 8), (5, 9)]:
        for check_cap in (False, True):
            table, certified = _closure_and_branch(monkeypatch, rels, max_len, cap, check_cap)
            expected = per_edge_closure(rels, max_len, cap, check_cap)
            assert (table.classes, table.cap_warning) == expected, (max_len, cap, check_cap)
            assert set(table.classes.values()) == {"a"}
            branches.append(certified)
    assert all(branches)


def test_a_completion_that_runs_forever_falls_back(monkeypatch):
    # Under shortlex aba = bab completes to infinitely many rules, so every
    # cap falls back to the sweep.
    rels = [Relation("aba", "bab")]
    assert rewriting.complete([("aba", "bab")], MAX_CAP) is None
    for max_len, cap in [(3, 5), (5, 9), (6, 12)]:
        for check_cap in (False, True):
            table, certified = _closure_and_branch(monkeypatch, rels, max_len, cap, check_cap)
            assert not certified
            expected = per_edge_closure(rels, max_len, cap, check_cap)
            assert (table.classes, table.cap_warning) == expected, (max_len, cap, check_cap)


def test_rule_limit_falls_back(monkeypatch):
    family = GroupCase(False, False, 2)
    rels = relations_of(family)
    table, certified = _closure_and_branch(monkeypatch, rels, 5, 10, True)
    assert certified and table == oracle._swept_closure(rels, 5, 10, True)
    monkeypatch.setattr(rewriting, "MAX_RULES", len(rels) + 1)
    table, certified = _closure_and_branch(monkeypatch, rels, 5, 10, True)
    assert not certified
    assert table == oracle._swept_closure(rels, 5, 10, True)


# -- bound relations too long to act on the closure

@pytest.mark.parametrize("huge, infinite", [
    (GroupCase(False, False, 10 ** 12), GroupCase(False, False, None)),
    (GroupCase(True, True, 10 ** 12), GroupCase(True, True, None)),
    (Combinatorial(10 ** 12, 2), Combinatorial(None, 2)),
    (Combinatorial(3, 10 ** 12), Combinatorial(3, None)),
], ids=str)
def test_huge_bound_verifies_like_infinite(huge, infinite):
    for max_len, cap in [(4, 8), (6, 10), (MAX_VERIFY_LEN, MAX_CAP)]:
        assert verify_reducer(huge, max_len, cap) == verify_reducer(infinite, max_len, cap)


@pytest.mark.parametrize("family", [GroupCase(True, False, 2), GroupCase(True, True, 2)],
                         ids=str)
def test_a_relation_one_past_the_cap_is_kept(family):
    # a^3 = a is cap + 1 letters long, yet it acts in the re-check at caps
    # cap + 1 and cap + 2: without it the cap warning would be lost.
    rels = relations_of(family)
    expected = per_edge_closure(rels, 2, 2, True)
    assert expected[1] and not per_edge_closure(rels[:-1], 2, 2, True)[1]
    table = closure_classes(family, 2, 2)
    assert (table.classes, table.cap_warning) == expected
