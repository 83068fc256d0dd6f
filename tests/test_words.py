import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthox import Combinatorial, reduce
from orthox.errors import BadExponent, BadSymbol, EmptyWord, OrthoxError
from orthox.words import (
    balance,
    format_runs,
    format_word,
    mirror,
    parse_runs,
    parse_word,
    syllables,
)

from conftest import RUN_LISTS, caret, flat

words = st.text(alphabet="ab", min_size=1, max_size=24)


def test_parse_literal_letters():
    assert parse_word("ab") == "ab"
    assert parse_word("  ba ") == "ba"


def test_parse_expands_exponents():
    assert parse_word("a^3b") == "aaab"
    assert parse_word("ab^2a^2b") == "abbaab"
    assert parse_word("a^01") == "a"


def test_parse_rejects_bad_input():
    with pytest.raises(BadSymbol):
        parse_word("abc")
    with pytest.raises(EmptyWord):
        parse_word("   ")
    with pytest.raises(BadExponent):
        parse_word("a^0")
    with pytest.raises(BadExponent):
        parse_word("a^")
    with pytest.raises(BadExponent):
        parse_word("a2")
    with pytest.raises(BadExponent):
        parse_word("^2ab")


def test_parse_runs_merges_without_expanding():
    assert parse_runs("a^2ab") == [("a", 3), ("b", 1)]
    assert parse_runs("aa^3b^2b") == [("a", 4), ("b", 3)]
    assert parse_runs("b") == [("b", 1)]
    n = 10**18
    assert parse_runs(f"a^{n}a^{n}b^{n}") == [("a", 2 * n), ("b", n)]
    assert format_runs(parse_runs(f"a^{n}ab")) == f"a^{n + 1}b"


def test_parse_rejects_non_ascii_digits():
    # U+0663 is an Arabic-Indic three, a digit to str.isdigit but not an exponent
    for text in ("a^\u0663b", "a^\u0663", "a\u0663"):
        with pytest.raises(OrthoxError):
            parse_runs(text)
        with pytest.raises(OrthoxError):
            reduce(text, Combinatorial(None, None))


def test_parse_rejects_exponent_too_long_to_convert():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts exponents of any length on this interpreter")
    with pytest.raises(BadExponent):
        parse_runs("a^" + "1" * (limit + 1))


def test_syllables_examples():
    assert syllables("abba") == [(1, 2), (1, 0)]
    assert syllables("b") == [(0, 1)]
    assert syllables("aabb") == [(2, 2)]


@given(words)
def test_syllables_roundtrip_and_boundaries(w):
    syls = syllables(w)
    assert "".join("a" * k + "b" * l for k, l in syls) == w
    assert all(k + l >= 1 for k, l in syls)
    for idx, (k, l) in enumerate(syls):
        if idx > 0:
            assert k >= 1
        if idx < len(syls) - 1:
            assert l >= 1


def test_mirror_examples():
    assert mirror("a") == "b"
    assert mirror("ab") == "ab"
    assert mirror("aab") == "abb"


@given(words)
def test_mirror_involution(w):
    assert mirror(mirror(w)) == w
    assert len(mirror(w)) == len(w)


@given(words, words)
def test_mirror_reverses_concatenation(u, v):
    assert mirror(u + v) == mirror(v) + mirror(u)


@given(words)
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_format_uses_caret_sugar():
    assert format_word("aaab") == "a^3b"
    assert format_word("ab") == "ab"


@given(RUN_LISTS)
def test_caret_text_reads_as_its_spelling(runs):
    text, letters = caret(runs), flat(runs)
    assert parse_word(text) == letters
    assert format_word(text) == format_word(letters)
    assert syllables(text) == syllables(letters)
    assert mirror(text) == mirror(letters)


def test_balance():
    assert balance(parse_runs("abba")) == 0
    assert balance(parse_runs("a^3b")) == 2
    assert balance(parse_runs(f"a^{10**18}b^2a")) == 10**18 - 1
