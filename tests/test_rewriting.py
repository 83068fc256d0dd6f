import random

import pytest

from orthox import Combinatorial, GroupCase, Relation, reduce, relations_of
from orthox import oracle, rewriting
from orthox.oracle import all_words
from orthox.rewriting import Rule, complete, normal_forms

from conftest import GROUP_CASES

FAMILIES = [Combinatorial(n, m) for n in (1, 2, 3, None) for m in (1, 2, 3, None)] + GROUP_CASES


def _pairs(rels):
    return [(r.lhs, r.rhs) for r in rels]


def _system(family):
    rules = complete(_pairs(relations_of(family)), max_slack=12, max_lhs=15)
    assert rules is not None, family
    return rules


def _reference_normal_form(word, rules):
    """Rewrite the leftmost redex of any rule until none is left."""
    while True:
        hits = [(word.find(r.lhs), r) for r in rules if r.lhs in word]
        if not hits:
            return word
        at, rule = min(hits, key=lambda hit: hit[0])
        word = word[:at] + rule.rhs + word[at + len(rule.lhs):]


def _one_step_rewrites(word, rules):
    for rule in rules:
        at = word.find(rule.lhs)
        while at != -1:
            yield word[:at] + rule.rhs + word[at + len(rule.lhs):]
            at = word.find(rule.lhs, at + 1)


def test_combinatorial_relations_are_complete_as_given():
    for family in FAMILIES[:16]:
        rules = _system(family)
        assert [(r.lhs, r.rhs) for r in rules] == _pairs(relations_of(family))
        assert all(r.peak == len(r.lhs) for r in rules)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_rules_are_shortlex_decreasing_and_start_with_the_relations(family):
    rules = _system(family)
    for rule in rules:
        assert (len(rule.lhs), rule.lhs) > (len(rule.rhs), rule.rhs)
        assert rule.peak >= len(rule.lhs)
    given = [(max(p, key=lambda w: (len(w), w)), min(p, key=lambda w: (len(w), w)))
             for p in _pairs(relations_of(family))]
    assert [(r.lhs, r.rhs, r.peak) for r in rules[:len(given)]] == \
        [(lhs, rhs, len(lhs)) for lhs, rhs in given]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_system_is_locally_confluent_on_short_words(family):
    # Every one-step rewrite of a word keeps its normal form.
    rules = _system(family)
    for word in all_words(8):
        target = _reference_normal_form(word, rules)
        for rewrite in _one_step_rewrites(word, rules):
            assert _reference_normal_form(rewrite, rules) == target, (word, rewrite)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_normal_form_is_least_word_with_the_same_reduction(family):
    words = all_words(7)
    forms = normal_forms(_system(family), 7)
    least = {}
    for word in words:                  # length-lex order
        least.setdefault(reduce(word, family), word)
    assert forms == [least[reduce(word, family)] for word in words]


def _assert_peaks_hold(rels, rules):
    # The sweep at cap = P joins each rule's sides: a derivation no longer
    # than P exists.
    by_peak = {}
    for rule in rules:
        by_peak.setdefault(rule.peak, []).append(rule)
    for peak, group in by_peak.items():
        max_len = max(len(r.lhs) for r in group)
        table = oracle._swept_closure(rels, max_len, peak, False)
        for rule in group:
            assert table.same_class(rule.lhs, rule.rhs), rule


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_peaks_bound_a_derivation(family):
    rels = relations_of(family)
    _assert_peaks_hold(rels, _system(family))


def test_peaks_bound_a_derivation_on_random_presentations():
    rng = random.Random(7)
    done = 0
    while done < 150:
        rels = [Relation(*("".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                           for _ in range(2)))
                for _ in range(rng.randint(1, 3))]
        rules = complete(_pairs(rels), max_slack=6, max_lhs=10)
        if not rules or max(r.peak for r in rules) > 12:
            continue
        _assert_peaks_hold(rels, rules)
        done += 1


def test_normal_forms_by_word_number():
    rules = [Rule("aabb", "ab", 4), Rule("aba", "a", 3), Rule("bab", "b", 3)]
    forms = normal_forms(rules, 4)
    words = all_words(4)
    assert len(forms) == len(words) == 30
    assert dict(zip(words, forms)) == {w: _reference_normal_form(w, rules) for w in words}


def test_equal_sides_add_no_rule():
    assert complete([("ab", "ab")], 0, 4) == []
    assert complete([("ab", "ab"), ("aa", "a")], 0, 4) == [Rule("aa", "a", 2)]


def test_limits_give_up(monkeypatch):
    rels = _pairs(relations_of(GroupCase(False, True, 2)))
    slack = max(r.peak - len(r.lhs) for r in complete(rels, 12, 15))
    assert complete(rels, slack, 15) is not None
    assert complete(rels, slack - 1, 15) is None
    assert complete([("aabb", "ab")], 0, 3) is None          # lhs longer than max_lhs
    assert complete([("aba", "bab")], 15, 15) is None        # runs forever
    monkeypatch.setattr(rewriting, "MAX_RULES", 5)
    many = [("a" * k + "b", "b") for k in range(1, 7)]
    assert complete(many[:-1], 0, 7) is not None
    assert complete(many, 0, 7) is None


def test_completion_is_deterministic():
    for family in (GroupCase(True, True, 5), GroupCase(False, True, 2)):
        rels = _pairs(relations_of(family))
        assert complete(rels, 12, 15) == complete(list(rels), 12, 15)


@pytest.mark.parametrize("relation, rules", [
    # aa.a rewrites to b.a and to a.b
    (("aa", "b"), [Rule("aa", "b", 2), Rule("ba", "ab", 3)]),
    # ab(a)ba rewrites to b.ba and to ab.b, both steps inside ababa
    (("aba", "b"), [Rule("aba", "b", 3), Rule("bba", "abb", 5)]),
], ids=["aa=b", "aba=b"])
def test_a_relation_overlapping_itself(relation, rules):
    assert complete([relation], 6, 12) == rules
