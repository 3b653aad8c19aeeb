import pytest

from vortexmoduli.moduli_numerics import ParameterError, moduli_dim
from vortexmoduli.strata import (
    Partition,
    partitions,
    stratification_report,
    stratum_dim,
)


def _brute_force_partition_count(d):
    # independent count: partitions as multisets via bounded composition search
    def count(n, cap):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, cap), 0, -1))
    return count(d, d if d else 1)


def test_partitions_small():
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in partitions(0)] == [()]
    assert len(partitions(6)) == 11
    for d in range(0, 9):
        assert len(partitions(d)) == _brute_force_partition_count(d)


def test_partitions_order_is_reverse_lex():
    for d in range(1, 9):
        parts = [p.parts for p in partitions(d)]
        assert parts == sorted(parts, reverse=True)
        assert all(sum(p) == d for p in parts)


def test_partition_validation():
    with pytest.raises(ParameterError):
        Partition((1, 2))
    with pytest.raises(ParameterError):
        Partition((0,))
    with pytest.raises(ParameterError):
        partitions(-1)


def _towers(d, r):
    return {tuple(row["partition"]): row["tower"] for row in stratification_report(d, r)}


def test_fiber_tower_shapes():
    # all-ones: d independent projective spaces
    assert _towers(3, 3)[(1, 1, 1)] == [[2], [2], [2]]
    # one double point: an extra bundle step over the base
    assert _towers(3, 2)[(2, 1)] == [[1, 1], [1]]
    # rank one: every fiber is a point
    assert _towers(3, 1)[(3,)] == [[0, 0, 0]]
    with pytest.raises(ParameterError):
        stratification_report(2, 0)


def test_tower_total_dim_partition_independent():
    for d in range(0, 9):
        for r in range(1, 5):
            for tower in _towers(d, r).values():
                assert sum(sum(chain) for chain in tower) == d * (r - 1)


def test_stratum_dims():
    assert stratum_dim(Partition((1, 1)), 2) == 4
    assert stratum_dim(Partition((2,)), 2) == 3
    assert stratum_dim(Partition((5,)), 2) == 6
    for r in range(1, 5):
        assert stratum_dim(Partition((1,)), r) == r
    # rank one counts support points only
    assert stratum_dim(Partition((3, 2, 1)), 1) == 3


def test_top_stratum_is_dense():
    for d in range(0, 9):
        for r in range(1, 5):
            dims = [stratum_dim(p, r) for p in partitions(d)]
            assert max(dims) == d * r
            top = Partition((1,) * d)
            assert stratum_dim(top, r) == d * r == moduli_dim(r, r, d, 2)
            for p in partitions(d):
                if p != top:
                    assert stratum_dim(p, r) < d * r


def test_stratification_report():
    rows = stratification_report(2, 2)
    assert rows == [
        {"partition": [2], "num_parts": 1, "tower": [[1, 1]], "dim": 3, "codim": 1},
        {"partition": [1, 1], "num_parts": 2, "tower": [[1], [1]], "dim": 4, "codim": 0},
    ]
    rows = stratification_report(1, 3)
    assert len(rows) == 1 and rows[0]["dim"] == 3 and rows[0]["codim"] == 0
    rows = stratification_report(3, 3)
    assert max(r["dim"] for r in rows) == 9
