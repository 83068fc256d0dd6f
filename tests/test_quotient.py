import itertools
import time

import pytest

from orthox import (
    Combinatorial,
    GroupCase,
    format_element,
    multiply,
    reduce,
    window_elements,
)
from orthox.oracle import all_words
from orthox.quotient import (
    BICYCLIC,
    BicyclicImage,
    CyclicImage,
    inverse_image,
    inverses_window,
)

from conftest import COMBINATORIAL_SWEEP, EVERY_FAMILY

FREE = Combinatorial(None, None)
N = 10**18


def image_name(x):
    return format_element(inverse_image(x).element)


def test_image_examples():
    assert image_name(reduce("ab^2a", FREE)) == "ba"
    assert image_name(reduce("a^4", FREE)) == "a^4"
    assert image_name(reduce("ab^2a^2b", FREE)) == "ba"
    case1 = GroupCase(False, False, None)
    assert inverse_image(reduce("a^4b", case1)) == CyclicImage(3)


def test_image_is_homomorphism_combinatorial():
    vocab = all_words(7)
    canon = {w: reduce(w, FREE) for w in vocab}
    images = {w: inverse_image(canon[w]) for w in vocab}
    for w1 in vocab:
        for w2 in vocab:
            lhs = inverse_image(multiply(canon[w1], canon[w2]))
            rhs = multiply(images[w1].element, images[w2].element)
            assert lhs == BicyclicImage(rhs)


@pytest.mark.parametrize("family", COMBINATORIAL_SWEEP, ids=str)
def test_image_is_the_bicyclic_reduction_of_the_canonical_word(family):
    # The image is the element's own head and tail under the bicyclic
    # bounds; here it is checked against reducing its word in BICYCLIC.
    for x in window_elements(family, 6):
        assert inverse_image(x).element == reduce(format_element(x), BICYCLIC), x.form


@pytest.mark.parametrize("order", [None, 1, 3, 5])
def test_image_is_homomorphism_group(order):
    family = GroupCase(False, False, order)
    for w1 in all_words(4):
        for w2 in all_words(4):
            x, y = reduce(w1, family), reduce(w2, family)
            got = inverse_image(multiply(x, y))
            g = inverse_image(x).value + inverse_image(y).value
            if order is not None:
                g %= order
            assert got == CyclicImage(g)


def test_combinatoriality_transfer():
    # group sources collapse onto a cyclic group of the generator order,
    # combinatorial sources onto the full bicyclic grid
    family = GroupCase(True, False, 4)
    values = {inverse_image(x).value for x in window_elements(family, 4)}
    assert values == {0, 1, 2, 3}
    images = {inverse_image(x).element
              for x in window_elements(Combinatorial(3, 2), 4)}
    assert len(images) > 1
    for img in images:
        assert img.family == BICYCLIC


def test_inverses_window_examples():
    vs = inverses_window(reduce("a", FREE), 3)
    assert reduce("b", FREE) in vs
    assert [format_element(y) for y in vs] == ["b", "ab^2"]
    assert reduce("ab", FREE) in inverses_window(reduce("ab", FREE), 2)
    case1 = GroupCase(False, False, None)
    vs = inverses_window(reduce("a", case1), 4)
    assert sorted((y.form.g, y.form.row, y.form.col) for y in vs) == [
        (-1, "a", "a"), (-1, "a", "b"), (-1, "b", "a"), (-1, "b", "b")]


def test_inverses_satisfy_defining_identities():
    x = reduce("ba^2", FREE)
    for y in inverses_window(x, 4):
        assert multiply(multiply(x, y), x) == x
        assert multiply(multiply(y, x), y) == y


def test_image_equality_matches_window_inverse_sets():
    # the classifier route (images) against the inverse-set route (window
    # inverse sets, checked against the definition below) on all elements
    # with exponents <= 4
    window = window_elements(FREE, 4)
    vsets = {x: tuple(inverses_window(x, 8)) for x in window}
    for x, y in itertools.combinations(window, 2):
        assert (inverse_image(x) == inverse_image(y)) == (vsets[x] == vsets[y]), (x.form, y.form)


@pytest.mark.parametrize("family", EVERY_FAMILY, ids=str)
def test_inverses_window_matches_search(family):
    # every y of the widest window with x y x = x and y x y = y, cut down
    # to each smaller window: the closed form must miss none and add none
    wide = window_elements(family, 12)
    windows = {bound: set(window_elements(family, bound)) for bound in range(1, 13)}
    for x in window_elements(family, 4):
        found = [y for y in wide if multiply(multiply(x, y), x) == x
                 and multiply(multiply(y, x), y) == y]
        for bound, window in windows.items():
            assert inverses_window(x, bound) == [y for y in found if y in window]


def test_inverses_window_ignores_bound_size():
    start = time.perf_counter()
    x = reduce(f"a^{N}b^{N + 3}a", FREE)
    assert [format_element(y) for y in inverses_window(x, N)] == [
        "ba^3", "ba^4b", "ab^2a^3", "ab^2a^4b"]
    big = reduce(f"b^{N}a^{N + 2}", FREE)
    found = inverses_window(big, N + 3)
    assert [format_element(y) for y in found] == [
        f"b^{N + 2}a^{N}", f"b^{N + 2}a^{N + 1}b",
        f"ab^{N + 3}a^{N}", f"ab^{N + 3}a^{N + 1}b"]
    for y in found:
        assert multiply(multiply(big, y), big) == big
        assert multiply(multiply(y, big), y) == y
    assert inverses_window(big, N + 2) == found[:2]
    assert inverses_window(big, N + 1) == []
    case1 = GroupCase(False, False, None)
    assert len(inverses_window(reduce(f"a^{N}", case1), N)) == 4
    assert time.perf_counter() - start < 1.0
