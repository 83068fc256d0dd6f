"""Text output: eggbox grids (ASCII, JSON) and band diagrams (DOT).

Combinatorial eggboxes are rendered over a window: counts of edge rows
above/below the central row and edge columns left/right of the central
column.  Rows run top to bottom as a b^k (k descending), the central
row, then b^k (k ascending); columns run left to right as a^l b
(l descending), the central column, then a^l (l ascending).  Group-case
eggboxes are the fixed grids of at most four subgroup cells, printed
with their cell labels and a few representatives.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import OrthoxError, WindowExceedsBounds
from .family import FamilySpec, GroupCase
from .normal_form import Element, GroupElement, element_at, format_element
from .structure import band_diagram

# A window of c edge rows and columns a side has (2c + 1) ** 2 cells.
MAX_WINDOW_COUNT = 100
MAX_REPS = 1_000


class EggboxWindow(NamedTuple):
    rows_up: int
    rows_down: int
    cols_left: int
    cols_right: int


def eggbox_grid(family: FamilySpec, window: EggboxWindow,
                reps: int = 3) -> list[list[str]]:
    """Matrix of cell strings for the eggbox picture over the window.

    Window counts stop at MAX_WINDOW_COUNT and reps at MAX_REPS.
    """
    if not 0 <= reps <= MAX_REPS:
        raise OrthoxError(f"reps must be >= 0 and <= {MAX_REPS}, got {reps}")
    if not all(0 <= v <= MAX_WINDOW_COUNT for v in window):
        raise WindowExceedsBounds(
            f"window counts must be >= 0 and <= {MAX_WINDOW_COUNT}, got {window}")
    if isinstance(family, GroupCase):
        return _group_grid(family, reps)
    n, m = family.right_bound, family.left_bound
    if not family.admits_head(1, window.rows_up + 1):
        raise WindowExceedsBounds(
            f"rows above the center stop at a b^{m}; asked for {window.rows_up}")
    if not family.admits_tail(window.cols_left + 1, 1):
        raise WindowExceedsBounds(
            f"columns left of the center stop at a^{n} b; asked for {window.cols_left}")
    rows = [(1, k) for k in range(window.rows_up + 1, 1, -1)]
    rows.append(None)
    rows.extend((0, k) for k in range(1, window.rows_down + 1))
    cols = [(l, 1) for l in range(window.cols_left + 1, 1, -1)]
    cols.append(None)
    cols.extend((l, 0) for l in range(1, window.cols_right + 1))
    return [[format_element(element_at(family, r, c)) for c in cols]
            for r in rows]


def grid_text(matrix: list[list[str]]) -> str:
    """Fixed-width, pipe-separated rendering of a cell matrix."""
    width = max(len(cell) for row in matrix for cell in row)
    lines = [" | ".join(cell.ljust(width) for cell in row).rstrip()
             for row in matrix]
    return "\n".join(lines)


def band_dot(family: FamilySpec, bound: int) -> str:
    """DOT digraph of the window band.

    Covering pairs of the natural order become bold edges from the
    greater idempotent down to the covered one; same-row and same-column
    pairs become thin edges labelled R and L.
    """
    diagram = band_diagram(family, bound)
    name = {node: format_element(node) for node in diagram.nodes}
    lines = ["digraph band {"]
    for node in diagram.nodes:
        lines.append(f'  "{name[node]}";')
    for lower, upper in diagram.order_edges:
        lines.append(f'  "{name[upper]}" -> "{name[lower]}" [style=bold];')
    for x, y in diagram.r_edges:
        lines.append(f'  "{name[x]}" -> "{name[y]}" [label="R"];')
    for x, y in diagram.l_edges:
        lines.append(f'  "{name[x]}" -> "{name[y]}" [label="L"];')
    lines.append("}")
    return "\n".join(lines)


def band_json(family: FamilySpec, bound: int) -> str:
    diagram = band_diagram(family, bound)
    name = format_element
    return json.dumps({
        "nodes": [name(x) for x in diagram.nodes],
        "order_edges": [[name(a), name(b)] for a, b in diagram.order_edges],
        "r_edges": [[name(a), name(b)] for a, b in diagram.r_edges],
        "l_edges": [[name(a), name(b)] for a, b in diagram.l_edges],
    })


def band_text(family: FamilySpec, bound: int) -> str:
    diagram = band_diagram(family, bound)
    name = format_element
    lines = ["nodes: " + ", ".join(name(x) for x in diagram.nodes)]
    lines.append("covers: " + ", ".join(
        f"{name(b)} > {name(a)}" for a, b in diagram.order_edges))
    lines.append("R: " + ", ".join(
        f"{name(a)} ~ {name(b)}" for a, b in diagram.r_edges))
    lines.append("L: " + ", ".join(
        f"{name(a)} ~ {name(b)}" for a, b in diagram.l_edges))
    return "\n".join(lines)


def _cell_label(row: str | None, col: str | None) -> str:
    """H_ and the tracked end letters, one when they agree: H_a, H_ab, H_ba, H_b."""
    ends = (row or "") + (col or "")
    return "H_" + (ends if len(set(ends)) > 1 else ends[:1] or "a")


def _group_grid(family: GroupCase, reps: int) -> list[list[str]]:
    return [[f"{_cell_label(r, c)}: " + ", ".join(_cell_reps(family, r, c, reps))
             for c in family.cols] for r in family.rows]


def _cell_reps(family: GroupCase, row: str | None, col: str | None,
               count: int) -> list[str]:
    if family.order is not None:
        gs = range(min(count, family.order))
    else:
        gs = range(count)
    return [format_element(Element(family, GroupElement(g, row, col)))
            for g in gs]
