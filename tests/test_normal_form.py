import itertools
import sys
import time
from functools import reduce as fold

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthox import (
    Combinatorial,
    Element,
    FamilyMismatch,
    Finite,
    GroupCase,
    GroupElement,
    Infinite,
    ReducedWord,
    canonical_inverse,
    dual_of,
    equal,
    format_element,
    is_group_element,
    is_idempotent,
    mirror,
    multiply,
    order_of,
    parse_word,
    power,
    reduce,
    relations_of,
    window_elements,
)
from orthox import normal_form
from orthox.errors import BadExponent, OrthoxError
from orthox.normal_form import (
    MAX_ELEMENTS_BOUND,
    element_to_json,
    in_window,
    sort_key,
)
from orthox.oracle import all_words, closure_classes

from conftest import (
    COMBINATORIAL_FIVE,
    COMBINATORIAL_SWEEP,
    EVERY_FAMILY,
    RUN_LISTS,
    caret,
    flat,
)

FREE = Combinatorial(None, None)
words_st = st.text(alphabet="ab", min_size=1, max_size=14)


def quad(x):
    f = x.form
    return (f.i, f.k, f.l, f.j)


# -- frozen reduction examples ----------------------------------------

def test_reduce_examples_free_most():
    assert quad(reduce("aabb", FREE)) == (0, 0, 1, 1)
    assert quad(reduce("a^3b^5", FREE)) == (1, 3, 0, 0)
    assert quad(reduce("a^5b^2", FREE)) == (0, 0, 4, 1)
    assert quad(reduce("baab", FREE)) == (0, 1, 2, 1)


def test_reduce_examples_bounded():
    assert quad(reduce("a^4b", Combinatorial(3, None))) == (0, 0, 3, 0)
    assert quad(reduce("ab^3", Combinatorial(None, 2))) == (0, 2, 0, 0)
    assert quad(reduce("ab^3", Combinatorial(4, 2))) == (0, 2, 0, 0)


def test_reduce_examples_group():
    two = reduce("ab", GroupCase(False, True, None))
    assert (two.form.g, two.form.row, two.form.col) == (0, None, "b")
    one = reduce("a^3b", GroupCase(False, False, None))
    assert (one.form.g, one.form.row, one.form.col) == (2, "a", "b")
    four = reduce("a^5", GroupCase(True, True, 5))
    assert four.form.g == 0


def test_multiply_examples():
    assert format_element(multiply(reduce("ab^2", FREE), reduce("ab", FREE))) == "ab^2"
    assert multiply(reduce("a^2b", FREE), reduce("ab^3", FREE)) == reduce("a^2b^3", FREE)
    assert format_element(multiply(reduce("ba^2", FREE), reduce("ab", FREE))) == "ba^3b"


def test_multiply_group_shortcut():
    case1 = GroupCase(False, False, None)
    x = Element(case1, GroupElement(1, "a", "a"))
    y = Element(case1, GroupElement(-1, "b", "b"))
    assert multiply(x, y) == reduce("ab", case1)


def test_equal_and_mismatch():
    assert equal(reduce("aabb", FREE), reduce("ab", FREE))
    assert not equal(reduce("ab", FREE), reduce("ba", FREE))
    x = reduce("ab", FREE)
    assert equal(x, x)
    with pytest.raises(FamilyMismatch):
        equal(reduce("a", FREE), reduce("a", Combinatorial(1, 1)))
    with pytest.raises(FamilyMismatch):
        multiply(reduce("a", FREE), reduce("a", GroupCase(False, False, None)))


def test_canonical_inverse_examples():
    assert format_element(canonical_inverse(reduce("a", FREE))) == "b"
    ab = reduce("ab", FREE)
    assert canonical_inverse(ab) == ab
    inv = canonical_inverse(reduce("ab^2", FREE))
    assert format_element(inv) == "a^2b"
    x = reduce("ab^2", FREE)
    assert multiply(multiply(x, inv), x) == x


def test_power_examples():
    assert format_element(power(reduce("ba^2", FREE), 3)) == "ba^4"
    assert format_element(power(reduce("b^2a", FREE), 3)) == "b^4a"
    ab = reduce("ab", FREE)
    assert power(ab, 5) == ab
    assert power(reduce("ba", FREE), 1) == reduce("ba", FREE)


def test_idempotency_examples():
    assert is_idempotent(reduce("ab", FREE))
    assert is_idempotent(reduce("ab^2a^2b", FREE))
    assert not is_idempotent(reduce("a", FREE))


def test_group_element_predicate():
    assert not is_group_element(reduce("a", FREE))
    assert is_group_element(reduce("ab", FREE))
    assert is_group_element(reduce("a", GroupCase(False, False, None)))


def test_order_of():
    assert order_of(reduce("a", FREE)) == Infinite()
    assert order_of(reduce("ab", FREE)) == Finite(1)
    assert order_of(reduce("a", GroupCase(True, True, 5))) == Finite(5)
    assert order_of(reduce("a^2", GroupCase(True, True, 4))) == Finite(2)


def probed_order(x, steps=40):
    """Distinct powers of x if they repeat within `steps`, else None."""
    seen, cur = [], x
    while cur not in seen and len(seen) < steps:
        seen.append(cur)
        cur = multiply(cur, x)
    return len(seen) if cur in seen else None


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_order_of_matches_probing(family):
    for x in window_elements(family, 7):
        probed = probed_order(x)
        assert order_of(x) == (Infinite() if probed is None else Finite(probed)), x


COMBINATORIAL_EVERY = [f for f in EVERY_FAMILY if isinstance(f, Combinatorial)]


@pytest.mark.parametrize("family", COMBINATORIAL_EVERY, ids=str)
def test_window_elements_match_reduced_words(family):
    # Every element is a^i b^k a^l b^j with i, j in {0, 1}; reducing all of
    # them with k, l <= 9 reaches every element of the windows to bound 8.
    exps = itertools.product((0, 1), range(10), range(10), (0, 1))
    reduced = {reduce("a" * i + "b" * k + "a" * l + "b" * j, family)
               for i, k, l, j in exps if i + k + l + j}
    for bound in range(1, 9):
        in_it = sorted((x for x in reduced if in_window(x, bound)), key=sort_key)
        assert window_elements(family, bound) == in_it, bound


def test_window_elements_bound_limit_rejected_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"built an element {args}")
    monkeypatch.setattr(normal_form, "element_at", refuse)
    monkeypatch.setattr(normal_form, "Element", refuse)
    for family in (FREE, Combinatorial(1, 1), GroupCase(False, False, None)):
        for bound in (MAX_ELEMENTS_BOUND + 1, 10 ** 6):
            with pytest.raises(OrthoxError,
                               match=f"bound must be <= {MAX_ELEMENTS_BOUND}, got {bound}"):
                window_elements(family, bound)


def test_window_elements_group_size_limit_rejected_before_building(monkeypatch):
    # A finite-order group case lists every residue whatever the bound, so
    # its window is held to the size of the free family's largest window.
    most = (2 * MAX_ELEMENTS_BOUND) ** 2
    free_rows = normal_form.window_rows(FREE, MAX_ELEMENTS_BOUND)
    assert len(free_rows) * len(normal_form.window_cols(FREE, MAX_ELEMENTS_BOUND)) == most

    def refuse(*args):
        raise AssertionError(f"built an element {args}")
    monkeypatch.setattr(normal_form, "Element", refuse)
    monkeypatch.setattr(normal_form, "GroupElement", refuse)
    start = time.perf_counter()
    for family in (GroupCase(False, False, 10 ** 12), GroupCase(True, True, 10 ** 12),
                   GroupCase(False, False, most // 4 + 1), GroupCase(True, True, most + 1)):
        with pytest.raises(OrthoxError, match=f"more than {most:,} elements"):
            window_elements(family, 1)
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(normal_form, "Element", lambda *args: None)
    monkeypatch.setattr(normal_form, "GroupElement", lambda *args: None)
    assert len(window_elements(GroupCase(False, False, most // 4), 1)) == most
    assert len(window_elements(GroupCase(True, True, most), MAX_ELEMENTS_BOUND)) == most


@pytest.mark.parametrize("family", COMBINATORIAL_SWEEP, ids=str)
def test_element_at_bounds_any_free_head_and_tail(family):
    # element_at takes the head and tail of any free canonical word, admitted
    # or not, or a head and the tail ab, and applies the family bounds.  Up
    # to 9 letters the oracle's normal form referees without the reducer.
    oracle = closure_classes(family, 9).classes
    heads = [None] + [(i, k) for i in (0, 1) for k in range(i + 1, 7)]
    tails = [None] + [(l, j) for j in (0, 1) for l in range(max(j, 1), 7)]
    for row in heads:
        for col in tails:
            i, k = row or (0, 0)
            l, j = col or ((0, 0) if row else (1, 1))
            word = "a" * i + "b" * k + "a" * l + "b" * j
            x = normal_form.element_at(family, row, col)
            assert x == reduce(word, family), (row, col)
            if len(word) <= 9:
                assert parse_word(format_element(x)) == oracle[word], (row, col)


def test_element_at_example_past_both_bounds():
    family = Combinatorial(3, 2)
    assert normal_form.element_at(family, (1, 5), (5, 1)) == reduce("ab^5a^5b", family)
    assert format_element(normal_form.element_at(family, (1, 5), (5, 1))) == "b^4a^4"


@pytest.mark.parametrize("family", COMBINATORIAL_EVERY, ids=str)
def test_bound_relations_match_admitted_heads_and_tails(family):
    # reduce applies the bounds in element_at, through the family predicates.
    # Exponent 1 spells ab, which has no head: heads (1, k) start at k = 2.
    for e in range(2, 13):
        assert (reduce(f"ab^{e}", family).form.head == (1, e)) == family.admits_head(1, e)
        assert (reduce(f"a^{e}b", family).form.tail == (e, 1)) == family.admits_tail(e, 1)


def test_format_examples():
    assert format_element(Element(FREE, ReducedWord(0, 1, 2, 1))) == "ba^2b"
    case1 = GroupCase(False, False, None)
    assert format_element(Element(case1, GroupElement(-1, "a", "a"))) == "ab^3a"
    assert format_element(Element(case1, GroupElement(2, "a", "b"))) == "a^3b"


def test_element_json():
    assert element_to_json(reduce("baab", FREE)) == {"i": 0, "k": 1, "l": 2, "j": 1}
    case2 = GroupCase(False, True, None)
    assert element_to_json(reduce("b", case2)) == {"g": -1, "col": "b", "order": "inf"}
    case1 = GroupCase(False, False, 5)
    assert element_to_json(reduce("b", case1)) == {
        "g": 4, "row": "b", "col": "b", "order": 5}


# -- congruence and homomorphism properties ----------------------------

@pytest.mark.parametrize("family", COMBINATORIAL_FIVE)
def test_congruence_stability(family):
    # rewriting by any defining relation anywhere in a word never moves
    # its canonical form; exhaustive over |w| <= 10
    rules = []
    for rel in relations_of(family):
        rules.append((rel.lhs, rel.rhs))
        rules.append((rel.rhs, rel.lhs))
    for w in all_words(10):
        base = reduce(w, family)
        for src, dst in rules:
            pos = w.find(src)
            while pos != -1:
                rewritten = w[:pos] + dst + w[pos + len(src):]
                assert reduce(rewritten, family) == base, (w, src, dst, pos)
                pos = w.find(src, pos + 1)


@pytest.mark.parametrize("family,max_len", [
    (Combinatorial(None, None), 7),
    (Combinatorial(3, 2), 7),
    (Combinatorial(3, None), 7),
    (Combinatorial(None, 2), 7),
    (Combinatorial(1, 1), 7),
    (GroupCase(False, True, 3), 5),
])
def test_reduce_is_homomorphism(family, max_len):
    vocab = all_words(max_len)
    canon = {w: reduce(w, family) for w in vocab}
    for w1 in vocab:
        for w2 in vocab:
            assert reduce(w1 + w2, family) == multiply(canon[w1], canon[w2])


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + [
    GroupCase(False, False, None), GroupCase(True, False, 4)])
def test_format_reduce_roundtrip(family):
    for w in all_words(6):
        x = reduce(w, family)
        assert reduce(format_element(x), family) == x


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE)
def test_orthodoxy_powers(family):
    for n in range(1, 13):
        an, bn = "a" * n, "b" * n
        assert reduce(an + bn + an, family) == reduce(an, family)
        assert reduce(bn + an + bn, family) == reduce(bn, family)


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE)
def test_left_divisor_chain(family):
    assert reduce("aabba", family) == reduce("a", family)
    assert reduce("baabb", family) == reduce("b", family)


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE)
def test_generator_powers_distinct(family):
    a_powers = {quad(reduce("a" * p, family)) for p in range(1, 13)}
    b_powers = {quad(reduce("b" * p, family)) for p in range(1, 13)}
    assert len(a_powers) == 12 and len(b_powers) == 12


def _mirror_quad(form: ReducedWord) -> ReducedWord:
    if (form.i, form.k, form.l, form.j) == (0, 0, 1, 1):
        return form
    return ReducedWord(form.j, form.l, form.k, form.i)


def _swap(letter):
    if letter is None:
        return None
    return "b" if letter == "a" else "a"


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + [
    GroupCase(False, False, None), GroupCase(False, True, None),
    GroupCase(True, False, 4), GroupCase(True, True, 3)])
def test_mirror_duality(family):
    dual = dual_of(family)
    for w in all_words(6):
        got = reduce(mirror(w), dual)
        x = reduce(w, family)
        if isinstance(x.form, ReducedWord):
            assert got == Element(dual, _mirror_quad(x.form))
        else:
            g = -x.form.g
            if family.order is not None:
                g %= family.order
            expected = GroupElement(g, _swap(x.form.col), _swap(x.form.row))
            assert got == Element(dual, expected)


def test_bicyclic_canonical_shapes():
    bicyclic = Combinatorial(1, 1)
    for w in all_words(7):
        i, k, l, j = quad(reduce(w, bicyclic))
        assert (i, k, l, j) == (0, 0, 1, 1) or (i, j) == (0, 0), (w, (i, k, l, j))
    # window enumeration produces exactly the b^k a^l grid plus ab
    forms = {quad(x) for x in window_elements(bicyclic, 3)}
    expected = {(0, 0, 1, 1)}
    expected |= {(0, 0, l, 0) for l in range(1, 4)}
    expected |= {(0, k, 0, 0) for k in range(1, 4)}
    expected |= {(0, k, l, 0) for k in range(1, 4) for l in range(1, 4)}
    assert forms == expected


@pytest.mark.parametrize("family", COMBINATORIAL_FIVE + [
    GroupCase(False, False, None), GroupCase(False, True, None),
    GroupCase(True, False, None), GroupCase(True, True, None),
    GroupCase(False, False, 3), GroupCase(False, True, 5),
    GroupCase(True, False, 1), GroupCase(True, True, 4)])
def test_window_elements_are_canonical(family):
    for x in window_elements(family, 8):
        assert reduce(format_element(x), family) == x


@given(words_st, words_st)
@settings(max_examples=120)
def test_homomorphism_random_free(u, v):
    assert reduce(u + v, FREE) == multiply(reduce(u, FREE), reduce(v, FREE))


@given(words_st)
@settings(max_examples=120)
def test_inverse_laws_random(w):
    x = reduce(w, FREE)
    y = canonical_inverse(x)
    assert multiply(multiply(x, y), x) == x
    assert multiply(multiply(y, x), y) == y


# -- exponent-native words ----------------------------------------------

# The twenty families the benchmark draws from.
BENCH_FAMILIES = [Combinatorial(n, m) for n, m in (
    (None, None), (1, 1), (2, 2), (3, 2), (2, 3), (4, 3),
    (1, None), (None, 1), (3, None), (None, 3), (4, None), (None, 4))] + [
    GroupCase(left, right, order)
    for left in (False, True) for right in (False, True) for order in (None, 2)]
families_st = st.sampled_from(BENCH_FAMILIES)


@given(families_st, RUN_LISTS)
@settings(max_examples=300)
def test_reduce_caret_equals_reduce_spelled(family, runs):
    x = reduce(caret(runs), family)
    assert x == reduce(flat(runs), family)
    # letter by letter, never through a run longer than one
    assert x == fold(multiply, [reduce(letter, family) for letter in flat(runs)])


@given(families_st, RUN_LISTS, st.integers(1, 40))
@settings(max_examples=200)
def test_power_equals_repeated_multiply(family, runs, p):
    x = reduce(caret(runs), family)
    assert power(x, p) == fold(multiply, [x] * p)


@given(families_st, RUN_LISTS)
@settings(max_examples=200)
def test_canonical_inverse_is_mirrored_spelling(family, runs):
    x = reduce(caret(runs), family)
    y = canonical_inverse(x)
    assert multiply(multiply(x, y), x) == x
    assert multiply(multiply(y, x), y) == y
    assert y == reduce(mirror(parse_word(format_element(x))), family)


GROUP_SWEEP = [GroupCase(left, right, order) for left in (False, True)
               for right in (False, True) for order in (*range(1, 13), None)]


def assert_oracle_normal_forms(family):
    """The spelled canonical word of every word up to 9 letters is its oracle normal form."""
    table = closure_classes(family, 9)
    assert not table.cap_warning
    for w, form in table.classes.items():
        assert parse_word(format_element(reduce(w, family))) == form, (w, form)


@pytest.mark.parametrize("family", GROUP_SWEEP)
def test_group_words_are_shortlex_least(family):
    # The canonical word is the shortlex-least word of its element; a
    # shorter or equal-length smaller word would win.
    for w in all_words(8):
        canon = parse_word(format_element(reduce(w, family)))
        assert (len(canon), canon) <= (len(w), w), (w, canon)
    assert_oracle_normal_forms(family)


@pytest.mark.parametrize("family", COMBINATORIAL_SWEEP)
def test_combinatorial_words_are_oracle_normal_forms(family):
    assert_oracle_normal_forms(family)


def test_group_words_finite_order():
    case1 = GroupCase(False, False, 5)
    assert format_element(Element(case1, GroupElement(0, "a", "a"))) == "ab^2a"
    assert format_element(Element(case1, GroupElement(2, "b", "a"))) == "ba^3"
    assert format_element(Element(case1, GroupElement(2, "a", "b"))) == "a^3b"
    assert format_element(Element(case1, GroupElement(3, "b", "b"))) == "b^2"
    case2 = GroupCase(False, True, 5)
    assert format_element(Element(case2, GroupElement(2, None, "b"))) == "b^3"
    assert format_element(Element(case2, GroupElement(2, None, "a"))) == "a^2"
    case4 = GroupCase(True, True, 3)
    assert format_element(Element(case4, GroupElement(0, None, None))) == "ab"
    assert format_element(Element(case4, GroupElement(1, None, None))) == "a"


def test_group_words_at_a_huge_order():
    # Each candidate word carries an exponent near d / 2 when g is; none is spelled.
    d = 10**12
    start = time.perf_counter()
    assert format_element(reduce("b^999999999999", GroupCase(False, False, d))) == "ba^3b"
    for family in (GroupCase(left, right, d) for left in (False, True) for right in (False, True)):
        for g in range(d // 2 - 2, d // 2 + 3):
            for row in family.rows:
                for col in family.cols:
                    x = Element(family, GroupElement(g, row, col))
                    assert reduce(format_element(x), family) == x
    assert time.perf_counter() - start < 1.0


N = 10**18


def test_huge_exponent_reduce():
    start = time.perf_counter()
    x = reduce(f"a^{N}b^{N + 3}a", FREE)
    assert format_element(x) == "ab^4a"
    assert time.perf_counter() - start < 1.0


def test_huge_exponent_power():
    start = time.perf_counter()
    x = power(reduce("a^2b", FREE), N)
    assert format_element(x) == f"a^{N + 1}b"
    assert time.perf_counter() - start < 1.0


def test_result_exponent_too_long_to_write():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("str() writes ints of any length on this interpreter")
    nines = "9" * limit                      # the longest exponent str() writes
    x = reduce(f"b^{nines}", FREE)
    assert format_element(x) == f"b^{nines}"
    square = multiply(x, x)                  # b^(2 * nines): one digit more
    for write in (format_element, element_to_json):
        with pytest.raises(BadExponent, match=str(limit)):
            write(square)
    g = reduce(f"a^{nines}a^{nines}", GroupCase(False, False, None))
    with pytest.raises(BadExponent, match=str(limit)):
        element_to_json(g)
