import itertools
import math
from fractions import Fraction as F

import pytest

import projrep.glmodules as glmodules
from projrep.action import graded_basis, monomials_of_degree, operator_matrix, scaling_op
from projrep.errors import DimensionCapError
from projrep.glmodules import (
    DominantLabels,
    build_irreducible,
    cached_module,
    clear_caches,
    dominant_gaps,
    pieri_index_set,
    validate_module,
    weight_add,
    weight_from_labels,
    weyl_dimension,
)
from projrep.linalg import joint_kernel

SMALL_SWEEP = [
    (1, (), F(0)), (1, (), F(-2)), (1, (), F(1, 2)),
    (2, (0,), F(0)), (2, (1,), F(1)), (2, (2,), F(-1)), (2, (1,), F(1, 2)),
    (3, (0, 0), F(0)), (3, (1, 0), F(1)), (3, (1, 1), F(-2)), (3, (2, 1), F(1, 2)),
]


def test_weight_from_labels_examples():
    assert weight_from_labels(DominantLabels(2, (0,), F(0))) == (0, 0)
    assert weight_from_labels(DominantLabels(2, (1,), F(1))) == (1, 0)
    assert weight_from_labels(DominantLabels(3, (1, 0), F(1))) == (1, 0, 0)


def test_weyl_dimension_examples():
    assert weyl_dimension((0, 0, 0, 0)) == 1
    assert weyl_dimension((7, 0)) == 8
    assert weyl_dimension((1, 1, 0)) == 3
    with pytest.raises(ValueError):
        weyl_dimension((0, 1))
    with pytest.raises(ValueError):
        weyl_dimension((F(1, 2), 0))


def test_pieri_examples():
    assert pieri_index_set((3, 1), 0) == ((0, 0),)
    assert pieri_index_set((1, 0), 1) == ((1, 0), (0, 1))
    assert pieri_index_set((1, 1, 1), 2) == ((2, 0, 0),)


def test_pieri_constraints_hold():
    mu = (F(5, 2), F(3, 2), F(-1, 2))
    for k in range(5):
        for c in pieri_index_set(mu, k):
            assert sum(c) == k
            gaps = dominant_gaps(mu)
            for s in range(len(mu) - 1):
                assert c[s + 1] <= gaps[s]


@pytest.mark.parametrize("n,dynkin,b", SMALL_SWEEP)
def test_pieri_dimension_identity(n, dynkin, b):
    mu = weight_from_labels(DominantLabels(n, dynkin, b))
    for k in range(5):
        lhs = sum(weyl_dimension(weight_add(mu, c)) for c in pieri_index_set(mu, k))
        assert lhs == weyl_dimension(mu) * math.comb(k + n - 1, n - 1)


def test_build_trivial():
    V = build_irreducible(DominantLabels(2, (0,), F(0)))
    assert V.dim == 1
    assert all(V.e(i, j).is_zero() for i in range(2) for j in range(2))


def test_build_vector_rep():
    V = build_irreducible(DominantLabels(2, (1,), F(1)))
    assert V.dim == 2
    assert set(V.basis_weights) == {(1, 0), (0, 1)}
    assert V.highest_weight == (1, 0)


def test_build_sl3_adjoint_shape():
    V = build_irreducible(DominantLabels(3, (1, 1), F(7)))
    assert V.dim == 8


@pytest.mark.parametrize("n,dynkin,b", SMALL_SWEEP)
def test_module_invariants(n, dynkin, b):
    V = cached_module(n, dynkin, b)
    assert validate_module(V)


@pytest.mark.parametrize("n,dynkin,b", SMALL_SWEEP)
def test_labels_roundtrip(n, dynkin, b):
    mu = weight_from_labels(DominantLabels(n, dynkin, b))
    assert tuple(dominant_gaps(mu)) == dynkin
    assert sum(mu) == b


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_irreducible(DominantLabels(3, (9, 9), F(0)), dim_cap=100)


@pytest.mark.parametrize("n,dynkin,b,k", [
    (2, (1,), F(1), 1),
    (2, (1,), F(1), 2),
    (2, (2,), F(-1), 2),
    (3, (1, 0), F(1), 1),
    (3, (1, 1), F(0), 2),
])
def test_tensor_multiplicity_free(n, dynkin, b, k):
    """Under the scalings the degree-k piece is S^k tensor V: each admissible
    shift yields exactly one maximal vector, every other shift none."""
    V = cached_module(n, dynkin, b)
    gb = graded_basis(V, k)
    assert gb.dim == V.dim * math.comb(k + n - 1, n - 1)
    mu = V.highest_weight
    raisers = [
        operator_matrix(scaling_op(n, i, j), V, k) for i in range(n) for j in range(i + 1, n)
    ]
    admissible = set(pieri_index_set(mu, k))
    for c in monomials_of_degree(n, k):
        target = weight_add(mu, c)
        support = [
            {pos: 1} for pos, (mono, q) in enumerate(gb.labels)
            if weight_add(V.basis_weights[q], mono) == target
        ]
        found = joint_kernel(raisers, support)
        assert len(found) == (1 if c in admissible else 0), (c, len(found))


def test_clear_caches_empties_the_module_cache():
    V = cached_module(2, (1,), F(1))
    assert cached_module(2, (1,), F(1)) is V
    clear_caches()
    assert glmodules._module_cache == {}
    W = cached_module(2, (1,), F(1))
    assert W is not V and W.memo == {}


def _oracle_wedge_image(i, j, subset):
    """E_{i,j} on a wedge basis element by replacing j with i in the ordered
    tuple and sorting; the sign is the parity of the inversions undone."""
    if j not in subset or (i != j and i in subset):
        return None
    lst = [i if s == j else s for s in subset]
    inversions = sum(1 for a in range(len(lst)) for b in range(a + 1, len(lst)) if lst[a] > lst[b])
    return tuple(sorted(lst)), (-1) ** inversions


@pytest.mark.parametrize("n", range(1, 6))
def test_wedge_table_matches_inversion_oracle(n):
    for d in range(n + 1):
        basis = list(itertools.combinations(range(n), d))
        table = glmodules._wedge_table(n, d)
        for i in range(n):
            for j in range(n):
                for idx, subset in enumerate(basis):
                    hit = _oracle_wedge_image(i, j, subset)
                    expected = None if hit is None else (basis.index(hit[0]), hit[1])
                    assert table[i][j][idx] == expected, (n, d, i, j, subset)


def test_build_tabulates_the_wedge_action_once(monkeypatch):
    calls = []
    original = glmodules._wedge_apply

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(glmodules, "_wedge_apply", counting)
    n = 3
    V = build_irreducible(DominantLabels(n, (2, 1), F(0)))
    assert V.dim == 15
    assert 0 < len(calls) <= n * n * sum(math.comb(n, d) for d in range(n + 1))
