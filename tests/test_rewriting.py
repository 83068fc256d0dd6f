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
    rules = complete(_pairs(relations_of(family)), max_lhs=15)
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


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_rules_are_shortlex_decreasing_and_start_with_the_relations(family):
    rules = _system(family)
    for rule in rules:
        assert (len(rule.lhs), rule.lhs) > (len(rule.rhs), rule.rhs)
    given = [(max(p, key=lambda w: (len(w), w)), min(p, key=lambda w: (len(w), w)))
             for p in _pairs(relations_of(family))]
    assert [(r.lhs, r.rhs) for r in rules[:len(given)]] == given


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


def _assert_joined_like_sweep(rels, rules):
    # _joined at height h answers what the block sweep at max_len |lhs|
    # and cap h answers, one sweep per lhs length and height.
    pairs = _pairs(rels)
    for length in {len(r.lhs) for r in rules}:
        for height in range(length, length + 7):
            table = oracle._swept_closure(rels, length, height, False)
            for rule in rules:
                if len(rule.lhs) == length:
                    assert oracle._joined(rule.lhs, rule.rhs, pairs, height) == \
                        table.same_class(rule.lhs, rule.rhs), (rule, height)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_joined_matches_block_sweep(family):
    _assert_joined_like_sweep(relations_of(family), _system(family))


def test_joined_matches_block_sweep_on_random_presentations():
    rng = random.Random(7)
    done = 0
    while done < 60:
        rels = [Relation(*("".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                           for _ in range(2)))
                for _ in range(rng.randint(1, 3))]
        rules = complete(_pairs(rels), max_lhs=5)
        if not rules:
            continue
        _assert_joined_like_sweep(rels, rules)
        done += 1


def test_normal_forms_by_word_number():
    rules = [Rule("aabb", "ab"), Rule("aba", "a"), Rule("bab", "b")]
    forms = normal_forms(rules, 4)
    words = all_words(4)
    assert len(forms) == len(words) == 30
    assert dict(zip(words, forms)) == {w: _reference_normal_form(w, rules) for w in words}


def test_equal_sides_add_no_rule():
    assert complete([("ab", "ab")], 4) == []
    assert complete([("ab", "ab"), ("aa", "a")], 4) == [Rule("aa", "a")]


def test_limits_give_up(monkeypatch):
    assert complete([("aabb", "ab")], 4) is not None
    assert complete([("aabb", "ab")], 3) is None             # lhs longer than max_lhs
    assert complete([("aba", "bab")], 15) is None            # runs forever
    monkeypatch.setattr(rewriting, "MAX_RULES", 5)
    many = [("a" * k + "b", "b") for k in range(1, 7)]
    assert complete(many[:-1], 7) is not None
    assert complete(many, 7) is None


def test_completion_is_deterministic():
    for family in (GroupCase(True, True, 5), GroupCase(False, True, 2)):
        rels = _pairs(relations_of(family))
        assert complete(rels, 15) == complete(list(rels), 15)


@pytest.mark.parametrize("relation, rules", [
    # aa.a rewrites to b.a and to a.b
    (("aa", "b"), [Rule("aa", "b"), Rule("ba", "ab")]),
    # ab(a)ba rewrites to b.ba and to ab.b, both steps inside ababa
    (("aba", "b"), [Rule("aba", "b"), Rule("bba", "abb")]),
], ids=["aa=b", "aba=b"])
def test_a_relation_overlapping_itself(relation, rules):
    assert complete([relation], 12) == rules
