from pathlib import Path

import pytest

from orthox import Combinatorial, GroupCase, WindowExceedsBounds, reduce
from orthox.render import (
    EggboxWindow,
    band_dot,
    eggbox_grid,
    grid_text,
)
from orthox.structure import eggbox_coord

GOLDEN = Path(__file__).parent / "golden"
FREE = Combinatorial(None, None)


def golden_text(name):
    return (GOLDEN / name).read_text()


def test_free_family_golden():
    got = grid_text(eggbox_grid(FREE, EggboxWindow(3, 3, 3, 3))) + "\n"
    assert got == golden_text("eggbox_free.txt")


def test_right_bounded_golden():
    family = Combinatorial(4, None)
    got = grid_text(eggbox_grid(family, EggboxWindow(3, 3, 3, 3))) + "\n"
    assert got == golden_text("eggbox_right4.txt")
    with pytest.raises(WindowExceedsBounds):
        eggbox_grid(family, EggboxWindow(3, 3, 4, 3))


def test_doubly_bounded_golden():
    family = Combinatorial(4, 3)
    got = grid_text(eggbox_grid(family, EggboxWindow(2, 3, 3, 3))) + "\n"
    assert got == golden_text("eggbox_right4_left3.txt")
    with pytest.raises(WindowExceedsBounds):
        eggbox_grid(family, EggboxWindow(3, 3, 3, 3))
    with pytest.raises(WindowExceedsBounds):
        eggbox_grid(family, EggboxWindow(2, 3, 4, 3))


def test_center_row_fragment():
    matrix = eggbox_grid(FREE, EggboxWindow(1, 1, 2, 2))
    center = matrix[1]
    joined = " | ".join(center)
    assert "a^2b | ab | a | a^2" in joined


def test_bicyclic_window_has_no_edge_rows_or_columns():
    matrix = eggbox_grid(Combinatorial(1, 1), EggboxWindow(0, 2, 0, 2))
    assert matrix[0] == ["ab", "a", "a^2"]
    assert matrix[1] == ["b", "ba", "ba^2"]
    assert matrix[2] == ["b^2", "b^2a", "b^2a^2"]


def test_cells_roundtrip_to_their_coordinates():
    family = Combinatorial(4, 3)
    window = EggboxWindow(2, 3, 3, 3)
    matrix = eggbox_grid(family, window)
    rows = [(1, k) for k in (3, 2)] + [None] + [(0, k) for k in (1, 2, 3)]
    cols = [(l, 1) for l in (4, 3, 2)] + [None] + [(l, 0) for l in (1, 2, 3)]
    for r, row_key in enumerate(rows):
        for c, col_key in enumerate(cols):
            coord = eggbox_coord(reduce(matrix[r][c], family))
            assert coord == (row_key, col_key), matrix[r][c]


def test_group_grids():
    assert eggbox_grid(GroupCase(False, False, None), EggboxWindow(0, 0, 0, 0)) == [
        ["H_a: ab^2a, a, a^2", "H_ab: ab, a^2b, a^3b"],
        ["H_ba: ba, ba^2, ba^3", "H_b: ba^2b, ba^3b, ba^4b"],
    ]
    assert eggbox_grid(GroupCase(False, True, None), EggboxWindow(0, 0, 0, 0)) == [
        ["H_a: ba, a, a^2", "H_b: ab, a^2b, a^3b"]]
    assert eggbox_grid(GroupCase(True, False, None), EggboxWindow(0, 0, 0, 0)) == [
        ["H_a: ab, a, a^2"], ["H_b: ba, ba^2, ba^3"]]
    assert eggbox_grid(GroupCase(True, True, 2), EggboxWindow(0, 0, 0, 0)) == [
        ["H_a: a^2, a"]]


def test_group_cell_reps_roundtrip():
    for family in (GroupCase(False, False, None), GroupCase(False, True, 5),
                   GroupCase(True, False, 3), GroupCase(True, True, None)):
        for row in eggbox_grid(family, EggboxWindow(0, 0, 0, 0), reps=4):
            for cell in row:
                reps = cell.split(": ", 1)[1].split(", ")
                assert len({reduce(r, family) for r in reps}) == len(reps)


def test_band_dot_free():
    dot = band_dot(FREE, 2)
    assert dot.startswith("digraph band {")
    assert '"ab" -> "ab^2a^2b" [style=bold];' in dot
    assert '[label="R"];' in dot and '[label="L"];' in dot


def test_band_dot_bicyclic_chain():
    dot = band_dot(Combinatorial(1, 1), 2)
    assert '"ab" -> "ba" [style=bold];' in dot
    assert '"ba" -> "b^2a^2" [style=bold];' in dot


def test_band_dot_rectangular_square():
    dot = band_dot(GroupCase(False, False, None), 2)
    assert dot.count("style=bold") == 0
    assert dot.count('[label="R"]') == 2
    assert dot.count('[label="L"]') == 2
