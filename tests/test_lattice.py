from collections import Counter
from math import comb

import pytest

from taupoly import lattice
from taupoly.dynkin import DynkinDiagram
from taupoly.errors import NotAVertex, RankTooLarge, UsageError
from taupoly.formulas import PATH, PREPROJECTIVE, orbit_dim_total
from taupoly.lattice import (
    block_area_corner,
    block_area_rect,
    block_sequence_weight,
    corner_path_blocks,
    orbit_total,
    rect_path_blocks,
    sign_sequence_blocks,
)

from reference import (
    East,
    North,
    area_corner,
    area_rect,
    corner_paths,
    rect_paths,
    sequence_weight,
    sign_sequences,
)


def A(n):
    return DynkinDiagram("A", n)


def D(n):
    return DynkinDiagram("D", n)


def engine_dim_A(n, ell):
    """The engine's submodule dimension total at vertex ell of A_n."""
    return orbit_dim_total(PREPROJECTIVE, DynkinDiagram("A", n), ell)


def engine_dim_D(n, ell):
    """The engine's submodule dimension total at vertex ell of D_n."""
    return orbit_dim_total(PREPROJECTIVE, DynkinDiagram("D", n), ell)


def engine_projective_dim(family, n, ell):
    """The engine's projective dimension: the path-family orbit total."""
    return orbit_dim_total(PATH, DynkinDiagram(family, n), ell)


def test_rectangle_figure_anchors():
    # the three displayed (4,3) paths: bottom-then-right, staircase, left-then-top
    assert area_rect((East,) * 4 + (North,) * 3, 4, 3) == 0
    assert area_rect((North,) * 3 + (East,) * 4, 4, 3) == 12
    stair = (North, East, East, North, East, North, East)
    assert area_rect(stair, 4, 3) == 7
    with pytest.raises(ValueError):
        area_rect((East, North), 2, 2)


def test_rectangle_small_enumeration_by_hand():
    # the six (2,2) paths carry areas 0,1,2,2,3,4
    areas = sorted(area_rect(p, 2, 2) for p in rect_paths(2, 2))
    assert areas == [0, 1, 2, 2, 3, 4]
    assert orbit_total(A(3), 2) == (12, 6)
    assert engine_dim_A(3, 2) == 12


def test_rectangle_closed_formula_values():
    assert engine_dim_A(1, 1) == 1
    assert [engine_dim_A(4, ell) for ell in range(1, 5)] == [10, 30, 30, 10]
    assert engine_dim_A(9, 4) == 2520
    total, _ = orbit_total(A(9), 4)
    assert total == 2520
    assert orbit_total(A(1), 1) == (1, 2)


def test_rectangle_oracle_matches_formula():
    for n in range(1, 12):
        for ell in range(1, n + 1):
            total, count = orbit_total(A(n), ell)
            assert total == engine_dim_A(n, ell)
            assert count == comb(n + 1, ell)


def test_rectangle_recurrence():
    # sum(n-1, n-l) = sum(n-2, n-l-1) + sum(n-2, n-l) + l*binom(n, l)
    def total(n, ell):
        if ell < 1 or ell > n:
            return 0
        total, _ = orbit_total(A(n), ell)
        return total

    for n in range(2, 11):
        for ell in range(1, n + 1):
            assert total(n, ell) == total(n - 1, ell - 1) + total(n - 1, ell) + ell * comb(n, ell)


def test_rectangle_max_area_is_projective_dim():
    for n in range(1, 9):
        for ell in range(1, n + 1):
            areas = [area_rect(p, ell, n - ell + 1) for p in rect_paths(ell, n - ell + 1)]
            assert max(areas) == ell * (n - ell + 1) == engine_projective_dim("A", n, ell)
            assert min(areas) == 0


def test_total_over_vertices_identity():
    for n in range(1, 13):
        expected = n * (n + 1) * 2 ** (n - 2) if n >= 2 else 1
        assert sum(engine_dim_A(n, ell) for ell in range(1, n + 1)) == expected


def test_corner_area_anchors():
    # all East: nothing below; all North: the full staircase
    n = 6
    assert area_corner((East,) * 5, n) == 0
    assert area_corner((North,) * 5, n) == 15
    assert area_corner((East, East, East, East, North), n) == 1
    with pytest.raises(ValueError):
        area_corner((East,) * 3, 6)


def test_corner_oracle():
    # the model at n = 2, below the D diagrams
    assert lattice._sum_blocks(corner_path_blocks(1), lambda s: block_area_corner(s, 2)) == (1, 2)
    assert orbit_total(D(4), 1) == orbit_total(D(4), -1) == (24, 8)
    total, _ = orbit_total(D(6), -1)
    assert total == 240
    for n in range(4, 13):
        for fork in (1, -1):
            total, count = orbit_total(D(n), fork)
            assert count == 2 ** (n - 1)
            assert total == engine_dim_D(n, fork)


def test_corner_max_area_is_projective_dim():
    for n in range(2, 12):
        areas = [area_corner(p, n) for p in corner_paths(n - 1)]
        assert max(areas) == n * (n - 1) // 2
        assert min(areas) == 0


def test_sign_sequences():
    assert sum(1 for _ in sign_sequences(4, 2)) == 24
    seqs = set(sign_sequences(4, 3))
    assert seqs == {(v,) for v in (1, 2, 3, 4, -1, -2, -3, -4)}
    for u in sign_sequences(5, 2):
        assert list(u) == sorted(u, reverse=True)
        assert len({abs(v) for v in u}) == len(u)


def test_sequence_weight():
    n = 5
    assert sequence_weight((-3, -4, -5), n) == 0
    assert sequence_weight((5, 4, 3), n) == (3 + 3) + (4 + 2) + (5 + 1)
    # max weight equals the projective dimension
    for n in range(4, 9):
        for ell in range(2, n):
            weights = [sequence_weight(u, n) for u in sign_sequences(n, ell)]
            assert max(weights) == (n - ell) * (n + ell - 1) == engine_projective_dim("D", n, ell)
            assert min(weights) == 0


def steps_of(positions, s, t):
    """The step tuple of a rectangle path given its East-step positions."""
    path = [North] * (s + t)
    for pos in positions:
        path[pos] = East
    return tuple(path)


BLOCK_SIZES = pytest.mark.parametrize("block_width", [1, 3, 64, lattice._BLOCK_WIDTH])


@BLOCK_SIZES
def test_rect_path_blocks_yield_each_path_once(block_width, monkeypatch):
    monkeypatch.setattr(lattice, "_BLOCK_WIDTH", block_width)
    for n in range(1, 9):
        for s in range(1, n + 1):
            t = n - s + 1
            blocks = list(rect_path_blocks(s, t))
            assert all(block.shape[1] <= block_width for block in blocks)
            seen = Counter(steps_of(col, s, t) for block in blocks for col in block.T.tolist())
            assert set(seen) == set(rect_paths(s, t))
            assert set(seen.values()) == {1}
            for block in blocks:
                paths = [steps_of(col, s, t) for col in block.T.tolist()]
                assert block_area_rect(block) == sum(area_rect(p, s, t) for p in paths)


def test_rectangle_totals_are_symmetric_in_the_sides():
    # the oracle lists the paths along the shorter side
    for s in range(1, 8):
        for t in range(1, 8):
            total = lattice._sum_blocks(rect_path_blocks(s, t), block_area_rect)
            assert total == lattice._sum_blocks(rect_path_blocks(t, s), block_area_rect)
            assert total == (sum(area_rect(p, s, t) for p in rect_paths(s, t)), comb(s + t, s))


@BLOCK_SIZES
def test_corner_path_blocks_yield_each_path_once(block_width, monkeypatch):
    monkeypatch.setattr(lattice, "_BLOCK_WIDTH", block_width)
    for n in range(2, 10):
        blocks = list(corner_path_blocks(n - 1))
        assert all(block.shape[1] <= block_width for block in blocks)
        seen = Counter(tuple(col) for block in blocks for col in block.T.tolist())
        assert set(seen) == set(corner_paths(n - 1))
        assert set(seen.values()) == {1}
        for block in blocks:
            expected = sum(area_corner(tuple(col), n) for col in block.T.tolist())
            assert block_area_corner(block, n) == expected


@BLOCK_SIZES
def test_sign_sequence_blocks_yield_each_sequence_once(block_width, monkeypatch):
    # small blocks split both the combinations and the sign vectors
    monkeypatch.setattr(lattice, "_BLOCK_WIDTH", block_width)
    for n in range(2, 9):
        for ell in range(1, n):
            blocks = list(sign_sequence_blocks(n, ell))
            assert all(block.shape[1] <= block_width for block in blocks)
            # a column is a member of sign_sequences up to the order of its entries
            members = [[tuple(sorted(col, reverse=True)) for col in b.T.tolist()] for b in blocks]
            seen = Counter(row for block in members for row in block)
            assert set(seen) == set(sign_sequences(n, ell))
            assert set(seen.values()) == {1}
            for block, rows in zip(blocks, members):
                expected = sum(sequence_weight(row, n) for row in rows)
                assert block_sequence_weight(block, n) == expected


def test_rectangle_oracle_is_exact_at_large_n():
    # positions past the int8 range; a long side cuts the blocks by entries
    assert orbit_total(A(200), 2) == (engine_dim_A(200, 2), comb(201, 2))
    assert orbit_total(A(200), 199) == (engine_dim_A(200, 199), comb(201, 199))
    blocks = list(rect_path_blocks(199, 2))
    assert max(block.size for block in blocks) <= lattice._BLOCK_WIDTH * 24
    assert sum(block.shape[1] for block in blocks) == comb(201, 199)


def test_mid_oracle_is_exact_at_large_n():
    # absolute values past the int8 range, summed exactly to the engine's totals
    assert orbit_total(D(200), 199) == (79600, 400) == (engine_dim_D(200, 199), 400)
    assert (
        orbit_total(D(300), 298)
        == (107101800, 179400)
        == (engine_dim_D(300, 298), 179400)
    )


def test_mid_oracle_matches_formula():
    assert orbit_total(D(4), 2) == (120, 24)
    assert orbit_total(D(4), 3) == (24, 8)
    for n in range(4, 12):
        for ell in range(2, n):
            total, count = orbit_total(D(n), ell)
            assert total == engine_dim_D(n, ell)
            assert count == 2 ** (n - ell) * comb(n, ell)


def test_dim_formula_values():
    assert engine_dim_D(4, 1) == 24
    assert engine_dim_D(4, 2) == 120
    assert engine_dim_D(5, 4) == 40
    assert engine_projective_dim("D", 4, 2) == 10
    assert engine_projective_dim("D", 6, 1) == 15


def test_range_errors():
    with pytest.raises(NotAVertex):
        engine_dim_A(3, 4)
    with pytest.raises(UsageError):
        engine_dim_D(3, 1)
    with pytest.raises(NotAVertex):
        engine_dim_D(5, 5)
    for d, ell in ((D(5), 5), (D(5), 0), (D(5), -2), (A(3), 4), (A(3), 0)):
        with pytest.raises(NotAVertex, match=f"{d} has no vertex {ell}"):
            orbit_total(d, ell)
    with pytest.raises(UsageError, match="E6 has no lattice model"):
        orbit_total(DynkinDiagram("E", 6), 1)
    _, count = orbit_total(A(15), 3)
    assert count == comb(16, 3)
    with pytest.raises(RankTooLarge, match="300,540,195"):
        orbit_total(A(30), 15)
