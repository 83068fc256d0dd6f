"""Words over the two-letter alphabet {a, b}.

A word is a nonempty string of the letters 'a' and 'b'.  The parser also
accepts caret exponents ("a^3b" for "aaab").  Inside the package a word
travels as its maximal runs [(letter, count)] -- neighbouring runs carry
different letters -- so an exponent is never spelled out letter by
letter; the formatter writes runs of length two or more back in caret
form.  There is no empty word: the semigroups served by this package
carry no adjoined identity.
"""

from __future__ import annotations

import re
import sys

from .errors import BadExponent, BadSymbol, EmptyWord

Run = tuple[str, int]

_SWAP = {"a": "b", "b": "a"}
# A letter run, then optionally an exponent on its last letter: "aa^3" is a^4.
_TOKEN = re.compile(r"(a+|b+)(?:\^([0-9]+))?")
_ALLOWED = set("ab^0123456789")


def parse_runs(text: str) -> list[Run]:
    """Caret text as maximal runs ("a^2ab" -> [("a", 3), ("b", 1)])."""
    s = text.strip()
    if not s:
        raise EmptyWord("word is empty")
    runs: list[Run] = []
    pos = 0
    for m in _TOKEN.finditer(s):
        if m.start() != pos:
            break
        letters, exp = m.groups()
        count = len(letters)
        if exp is not None:
            try:
                value = int(exp)
            except ValueError:      # more digits than int() converts
                raise BadExponent(
                    f"exponent at position {m.start(2)} is too long") from None
            if value < 1:
                raise BadExponent(f"exponent must be >= 1, got {value}")
            count += value - 1
        letter = letters[0]
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + count)
        else:
            runs.append((letter, count))
        pos = m.end()
    if pos < len(s):
        if s[pos] not in _ALLOWED:
            raise BadSymbol(
                f"symbol {s[pos]!r} at position {pos} is not one of a, b, ^, digits")
        raise BadExponent(f"malformed exponent at position {pos} in {text!r}")
    return runs


def format_runs(runs: list[Run]) -> str:
    """Caret text for maximal runs ([("a", 3), ("b", 1)] -> "a^3b")."""
    return "".join(letter if count == 1 else f"{letter}^{decimal(count)}"
                   for letter, count in runs)


def decimal(value: int) -> str:
    """str(value), or BadExponent past the interpreter's int-to-string limit.

    A caret exponent may have as many digits as str() writes, so a product,
    power or balance can have more: that is a domain error, not ValueError.
    """
    try:
        return str(value)
    except ValueError:
        raise BadExponent(
            f"the result holds a number of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for writing an int "
            "(sys.set_int_max_str_digits)") from None


def run_syllables(runs: list[Run]) -> list[tuple[int, int]]:
    """Pair maximal runs into syllables a^k b^l, returned as (k, l) pairs.

    The first syllable may have k = 0 and the last may have l = 0; every
    interior exponent is >= 1.
    """
    counts = [count for _, count in runs]
    if runs[0][0] == "b":
        counts.insert(0, 0)
    if len(counts) % 2:
        counts.append(0)
    return list(zip(counts[::2], counts[1::2]))


def mirror_runs(runs: list[Run]) -> list[Run]:
    """Reverse the runs and swap a <-> b."""
    return [(_SWAP[letter], count) for letter, count in reversed(runs)]


def balance(runs: list[Run]) -> int:
    """#a minus #b of maximal runs."""
    counts = [count for _, count in runs]
    diff = sum(counts[::2]) - sum(counts[1::2])
    return diff if runs[0][0] == "a" else -diff


def parse_word(text: str) -> str:
    """Expand caret notation into a flat letter string ("a^3b" -> "aaab")."""
    return _spell_runs(parse_runs(text))


def format_word(word: str) -> str:
    """Compress letter runs back into caret notation ("aaab" -> "a^3b")."""
    return format_runs(parse_runs(word))


def syllables(word: str) -> list[tuple[int, int]]:
    """Split a word into maximal runs a^k b^l, returned as (k, l) pairs.

    Concatenating the syllables re-spells the word exactly; see
    :func:`run_syllables` for their shape.
    """
    return run_syllables(parse_runs(word))


def mirror(word: str) -> str:
    """Reverse the word and swap a <-> b, as a flat letter string.

    An involution that reverses concatenation; it sends each element to
    one of its inverses in every family served here.
    """
    return _spell_runs(mirror_runs(parse_runs(word)))


def _spell_runs(runs: list[Run]) -> str:
    return "".join(letter * count for letter, count in runs)
