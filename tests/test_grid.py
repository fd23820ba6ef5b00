import numpy as np
import pytest

from symoc.errors import InputError
from symoc.grid import GridCover, InputGrid

from oracles import cells_overlapping_box


def test_logistic_cover_matches_41_cell_layout():
    cover = GridCover([0.0], [1.0], [1.0 / 40.0])
    assert cover.counts.tolist() == [41]
    # centers at i/40; first and last cells clipped to half width
    assert cover.center(0)[0] == 0.0
    assert cover.center(40)[0] == pytest.approx(1.0)
    lo, hi = cover.cell_bounds(0)
    assert lo[0] == 0.0 and hi[0] == pytest.approx(1.0 / 80.0)
    lo, hi = cover.cell_bounds(40)
    assert hi[0] == 1.0
    lo, hi = cover.cell_bounds(17)
    assert hi[0] - lo[0] == pytest.approx(1.0 / 40.0)


def test_unit_domain_with_unit_eta_gives_two_clipped_cells():
    cover = GridCover([0.0], [1.0], [1.0])
    assert cover.counts.tolist() == [2]
    assert cover.cell_bounds(0)[1][0] == 0.5
    assert cover.cell_bounds(1)[0][0] == 0.5


def test_chauffeur_cover_cell_counts():
    cover = GridCover([-5.0, -5.0], [5.0, 5.0], [0.03, 0.03])
    assert cover.counts.tolist() == [334, 334]
    assert cover.n_cells == 334 * 334


def test_cover_completeness_random_points():
    cover = GridCover([-1.0, 0.0], [2.0, 1.0], [0.07, 0.11])
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.uniform([-1.0, 0.0], [2.0, 1.0])
        cells = cover.members(x)
        assert cells, "every domain point must be covered"
        assert cover.quantize(x) in cells
        for idx in cells:
            lo, hi = cover.cell_bounds(idx)
            assert np.all(lo <= x) and np.all(x <= hi)


def test_quantize_outside_domain_is_overflow():
    cover = GridCover([0.0], [1.0], [0.25])
    assert cover.quantize([1.5]) == cover.overflow
    assert cover.quantize([-0.01]) == cover.overflow
    assert cover.members([1.5]) == []


def test_boundary_points_have_deterministic_quantizer_and_full_membership():
    cover = GridCover([0.0], [1.0], [0.25])
    # cell boundaries sit halfway between centers: 0.125, 0.375, ...
    for k in range(4):
        x = np.array([0.125 + 0.25 * k])
        cells = cover.members(x)
        assert len(cells) == 2
        assert cover.quantize(x) == cells[1]  # midpoint rounds to the upper cell
    corner = GridCover([0.0, 0.0], [1.0, 1.0], [0.25, 0.25])
    assert len(corner.members([0.125, 0.375])) == 4


def test_cells_overlapping_box():
    cover = GridCover([0.0], [1.0], [0.25])
    lo_idx, hi_idx, escape, empty = cover.box_index_ranges(
        np.array([[0.3], [0.9], [1.1]]), np.array([[0.6], [1.2], [1.2]])
    )
    assert escape.tolist() == [False, True, True]
    assert empty.tolist() == [False, False, True]
    cells = range(lo_idx[0][0], hi_idx[0][0] + 1)
    for idx in range(cover.n_cells):
        lo, hi = cover.cell_bounds(idx)
        meets = hi[0] >= 0.3 and lo[0] <= 0.6
        assert meets == (idx in cells)
    assert hi_idx[1][0] == cover.n_cells - 1


def test_box_ranges_agree_with_scalar_path():
    cover = GridCover([-1.0, -2.0], [1.0, 2.0], [0.13, 0.29])
    rng = np.random.default_rng(6)
    los, his = [], []
    for _ in range(200):
        c = rng.uniform([-1.3, -2.3], [1.3, 2.3])
        r = rng.uniform(0.0, 0.4, size=2)
        los.append(c - r)
        his.append(c + r)
    lo_idx, hi_idx, escape, empty = cover.box_index_ranges(np.array(los), np.array(his))
    for k in range(200):
        cells, esc = cells_overlapping_box(cover, los[k], his[k])
        assert esc == bool(escape[k])
        if empty[k]:
            assert cells == []
            continue
        expect = [
            cover.flatten((i, j))
            for i in range(lo_idx[k][0], hi_idx[k][0] + 1)
            for j in range(lo_idx[k][1], hi_idx[k][1] + 1)
        ]
        assert cells == sorted(expect)


def test_grid_rejects_bad_arguments():
    with pytest.raises(InputError):
        GridCover([0.0], [1.0], [-0.1])
    with pytest.raises(InputError):
        GridCover([0.0], [0.0], [0.1])
    with pytest.raises(InputError):
        GridCover([0.0, 0.0], [1.0], [0.1])


def test_input_grid_21_representatives():
    grid = InputGrid([([-2.0], [2.0])], [0.2])
    assert len(grid) == 21
    assert grid.radius == pytest.approx(0.1)
    assert grid.representatives[0][0] == -2.0
    assert grid.representatives[-1][0] == 2.0


def test_input_grid_singleton():
    grid = InputGrid([([0.0], [0.0])], [0.1])
    assert len(grid) == 1
    assert grid.radius == 0.0


def test_input_grid_degenerate_spacing():
    grid = InputGrid([([-1.0], [1.0])], [2.0])
    assert [v[0] for v in grid.representatives] == [-1.0, 1.0]
    assert grid.radius == pytest.approx(1.0)


def test_input_grid_union_of_pieces_and_covering():
    grid = InputGrid([([-1.0], [-0.5]), ([0.5], [1.0])], [0.2])
    rng = np.random.default_rng(7)
    for _ in range(200):
        piece = grid.pieces[int(rng.integers(0, 2))]
        u = rng.uniform(piece[0], piece[1])
        d = np.abs(grid.representatives - u).max(axis=1).min()
        assert d <= grid.radius + 1e-12


def test_multidim_input_grid():
    grid = InputGrid([([-1.0, 0.0], [1.0, 0.5])], [0.5, 0.25])
    assert len(grid) == 5 * 3
    assert grid.radius == pytest.approx(0.25)  # max over axes of step/2
