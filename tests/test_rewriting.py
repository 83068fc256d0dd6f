import pytest

from orthox import Combinatorial, GroupCase, Relation, reduce, relations_of
from orthox import rewriting
from orthox.oracle import MAX_VERIFY_LEN, all_words
from orthox.rewriting import complete, normal_forms

from conftest import GROUP_CASES
from test_oracle import per_edge_closure, per_edge_partitions

FAMILIES = [Combinatorial(n, m) for n in (1, 2, 3, None) for m in (1, 2, 3, None)] + GROUP_CASES


def _pairs(rels):
    return [(r.lhs, r.rhs) for r in rels]


def _system(family):
    rules, finished = complete(_pairs(relations_of(family)), max_lhs=15)
    assert finished, family
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


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_unfinished_completion_keeps_consequences(family):
    # Rules left out make the rest no less true: both sides of every kept
    # rule reduce to one element.
    unfinished = 0
    for max_lhs in range(4, 9):
        rules, finished = complete(_pairs(relations_of(family)), max_lhs)
        unfinished += not finished
        for rule in rules:
            assert reduce(rule.lhs, family) == reduce(rule.rhs, family), (rule, max_lhs)
    if isinstance(family, GroupCase) and family.order == 5:
        assert unfinished


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_rules_are_bounded_consequences(family):
    # Without trusting reduce: the sides of every rule are joined by the
    # relations through words at most 7 letters longer than its lhs.
    rels = relations_of(family)
    rules = _system(family)
    for length in {len(rule.lhs) for rule in rules}:
        classes = per_edge_partitions(rels, length, (length + 7,))[length + 7]
        for rule in rules:
            if len(rule.lhs) == length:
                assert classes[rule.lhs] == classes[rule.rhs], rule


def test_a_completion_that_runs_forever_keeps_consequences():
    # aba = bab keeps lengths, so the closure at cap max_len is its equality.
    relation = Relation("aba", "bab")
    rules, finished = complete([(relation.lhs, relation.rhs)], 15)
    assert not finished and max(len(rule.lhs) for rule in rules) == 15
    classes, _ = per_edge_closure([relation], 15, 15, False)
    for rule in rules:
        assert classes[rule.lhs] == classes[rule.rhs], rule


def test_normal_forms_by_word_number():
    rules = [Relation("aabb", "ab"), Relation("aba", "a"), Relation("bab", "b")]
    forms = normal_forms(rules, 4)
    words = all_words(4)
    assert len(forms) == len(words) == 30
    assert dict(zip(words, forms)) == {w: _reference_normal_form(w, rules) for w in words}


# -- the closure side of words.walk: one rewrite per new (form, letter) edge

@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_normal_forms_equal_the_reference_normal_form(family):
    rules = _system(family)
    assert normal_forms(rules, 8) == [_reference_normal_form(w, rules) for w in all_words(8)]


@pytest.mark.parametrize("family", FAMILIES, ids=str)
def test_normal_forms_normalize_once_per_edge(family, monkeypatch):
    rules, calls = _system(family), []
    normalize = rewriting._normalize
    monkeypatch.setattr(rewriting, "_normalize", lambda *args: calls.append(args) or normalize(*args))
    forms = normal_forms(rules, MAX_VERIFY_LEN)
    # The two letters, then one rewrite per edge: two edges out of each form.
    assert len(calls) <= 2 * len(set(forms)) + 2 < len(forms)


def test_equal_sides_add_no_rule():
    assert complete([("ab", "ab")], 4) == ([], True)
    assert complete([("ab", "ab"), ("aa", "a")], 4) == ([Relation("aa", "a")], True)


def test_limits_leave_rules_out(monkeypatch):
    assert complete([("aabb", "ab")], 4) == ([Relation("aabb", "ab")], True)
    assert complete([("aabb", "ab")], 3) == ([], False)      # lhs longer than max_lhs
    assert not complete([("aba", "bab")], 15)[1]              # runs forever
    monkeypatch.setattr(rewriting, "MAX_RULES", 5)
    many = [("a" * k + "b", "b") for k in range(1, 7)]
    assert complete(many[:-1], 7) == ([Relation(u, v) for u, v in many[:-1]], True)
    assert complete(many, 7) == ([Relation(u, v) for u, v in many[:-1]], False)


def test_completion_is_deterministic():
    for family in (GroupCase(True, True, 5), GroupCase(False, True, 2)):
        rels = _pairs(relations_of(family))
        assert complete(rels, 15) == complete(list(rels), 15)


@pytest.mark.parametrize("relation, rules", [
    # aa.a rewrites to b.a and to a.b
    (("aa", "b"), [Relation("aa", "b"), Relation("ba", "ab")]),
    # ab(a)ba rewrites to b.ba and to ab.b, both steps inside ababa
    (("aba", "b"), [Relation("aba", "b"), Relation("bba", "abb")]),
], ids=["aa=b", "aba=b"])
def test_a_relation_overlapping_itself(relation, rules):
    assert complete([relation], 12) == (rules, True)
