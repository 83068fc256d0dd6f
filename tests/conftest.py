import pytest
from hypothesis import strategies as st

from orthox import Combinatorial, GroupCase

COMBINATORIAL_FIVE = [
    Combinatorial(None, None),
    Combinatorial(3, None),
    Combinatorial(None, 2),
    Combinatorial(3, 2),
    Combinatorial(1, 1),
]

COMBINATORIAL_SWEEP = [Combinatorial(n, m) for n in (1, 2, 3, None) for m in (1, 2, 3, None)]

GROUP_CASES = [GroupCase(la, rb, order)
               for la in (False, True)
               for rb in (False, True)
               for order in (None, 1, 2, 3, 5)]

# Every Combinatorial(n, m) with n, m in {1..5, inf} and every group case
# with order in {1..5, inf}: the families the closed forms are checked on.
EVERY_FAMILY = ([Combinatorial(n, m) for n in (1, 2, 3, 4, 5, None)
                 for m in (1, 2, 3, 4, 5, None)]
                + [GroupCase(la, rb, order)
                   for la in (False, True)
                   for rb in (False, True)
                   for order in (None, 1, 2, 3, 4, 5)])


@pytest.fixture(scope="session")
def free_most():
    return Combinatorial(None, None)


# Words as run lists [(letter, exponent)].  Letters are drawn independently,
# so neighbouring runs may share a letter ("a^2a") and the parser has to
# merge them.
RUN_LISTS = st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 6)),
                     min_size=1, max_size=8)


def caret(runs):
    return "".join(letter if e == 1 else f"{letter}^{e}" for letter, e in runs)


def flat(runs):
    return "".join(letter * e for letter, e in runs)
