"""Exact algebra for the semigroups generated by two mutually inverse elements."""

from .errors import (
    BadExponent,
    BadSymbol,
    EmptyWord,
    FamilyMismatch,
    NotCombinatorial,
    NotIdempotent,
    OrthoxError,
    WindowExceedsBounds,
    WrongFamily,
)
from .family import (
    Combinatorial,
    FamilySpec,
    GroupCase,
    Relation,
    describe,
    dual_of,
    group_case,
    relations_of,
)
from .normal_form import (
    Element,
    Finite,
    GroupElement,
    Infinite,
    ReducedWord,
    canonical_inverse,
    equal,
    format_element,
    is_group_element,
    is_idempotent,
    multiply,
    order_of,
    power,
    reduce,
    window_elements,
)
from .structure import Piece, piece_of
from .words import format_word, mirror, parse_word, syllables

__version__ = "0.1.0"
